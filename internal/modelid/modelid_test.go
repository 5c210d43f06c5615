package modelid

import (
	"fmt"
	"testing"
)

// TestInternLookupString: a name keeps the ID it got first, Lookup never
// adds one, the zero ID is the empty name, and an ID no Intern returned
// renders as itself.
func TestInternLookupString(t *testing.T) {
	if id, ok := Lookup(""); !ok || id != 0 || id.String() != "" {
		t.Errorf("empty name: id %d known %v renders %q, want the zero ID", id, ok, id)
	}
	if _, ok := Lookup("modelid-test-never"); ok {
		t.Error("Lookup knows a name no one interned")
	}
	if _, ok := Lookup("modelid-test-never"); ok {
		t.Error("Lookup added the name it was asked about")
	}
	a, b := Intern("modelid-test-a"), Intern("modelid-test-b")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("IDs %d and %d, want distinct non-zero", a, b)
	}
	if again := Intern("modelid-test-a"); again != a {
		t.Errorf("re-interned as %d, first %d", again, a)
	}
	if id, ok := Lookup("modelid-test-b"); !ok || id != b {
		t.Errorf("Lookup = %d, %v; want %d, true", id, ok, b)
	}
	if a.String() != "modelid-test-a" || b.String() != "modelid-test-b" {
		t.Errorf("render %q and %q", a, b)
	}
	if got := ID(1 << 31).String(); got != "modelid.ID(2147483648)" {
		t.Errorf("unknown ID renders %q", got)
	}
}

// TestMemoAgreesWithIntern: a memo returns Intern's IDs, for the names it
// holds and past its capacity, and resolving a held name allocates nothing.
func TestMemoAgreesWithIntern(t *testing.T) {
	var m Memo
	for round := 0; round < 2; round++ {
		for i := 0; i < 2*memoLen; i++ {
			name := fmt.Sprintf("modelid-memo-%d", i)
			if got, want := m.ID(name), Intern(name); got != want {
				t.Fatalf("round %d: memo resolves %s to %d, Intern to %d", round, name, got, want)
			}
		}
	}
	if m.n != memoLen {
		t.Errorf("memo holds %d names, want %d", m.n, memoLen)
	}
	held := "modelid-memo-0"
	if allocs := testing.AllocsPerRun(100, func() { m.ID(held) }); allocs != 0 {
		t.Errorf("resolving a held name allocates %.0f times", allocs)
	}
}
