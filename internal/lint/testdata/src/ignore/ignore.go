// Package ignore exercises //lint:ignore suppression: same-line and
// line-above placement, the mandatory reason, and multi-rule lists.
package ignore

import "math/rand"

// Jitter suppresses on the offending line.
func Jitter() float64 {
	return rand.Float64() //lint:ignore norandglobal testdata demonstrating same-line suppression
}

// Above suppresses from the line directly above.
func Above() int {
	//lint:ignore norandglobal testdata demonstrating line-above suppression
	return rand.Intn(3)
}

// Multi lists several rules in one directive.
func Multi() float64 {
	return rand.Float64() //lint:ignore norandglobal,noclock testdata demonstrating a rule list
}

// Unreasoned omits the reason: the directive is reported and does not
// suppress the underlying violation.
func Unreasoned() float64 {
	return rand.Float64() //lint:ignore norandglobal
}

// Unsuppressed has no directive at all.
func Unsuppressed() float64 {
	return rand.ExpFloat64()
}

//lint:ignore lockorder testdata demonstrating a directive that names a deleted rule
