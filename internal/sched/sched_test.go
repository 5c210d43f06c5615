package sched

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"split/internal/model"
	"split/internal/modelid"
)

func newReq(id int, modelName string, arrive, ext float64, blocks ...float64) *Request {
	if len(blocks) == 0 {
		blocks = []float64{ext}
	}
	return NewRequest(id, modelName, model.Short, arrive, ext, blocks)
}

func TestRequestHelpers(t *testing.T) {
	r := newReq(1, "m", 10, 30, 10, 10, 10)
	if got := r.RemainingMs(); got != 30 {
		t.Errorf("remaining = %v", got)
	}
	if got := r.PlannedMs(); got != 30 {
		t.Errorf("planned = %v", got)
	}
	if r.Finished() {
		t.Error("fresh request finished")
	}
	r.Next = 2
	if got := r.RemainingMs(); got != 10 {
		t.Errorf("remaining after 2 blocks = %v", got)
	}
	r.Next = 3
	if !r.Finished() {
		t.Error("exhausted request not finished")
	}
	if got := r.TargetMs(4); got != 120 {
		t.Errorf("target = %v", got)
	}
}

// TestRequestSize pins the request's footprint: the engine keeps one per
// request in flight, and Class, ModelID and Canceled share one word.
func TestRequestSize(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size != 136 {
		t.Errorf("sched.Request is %d bytes, want 136", size)
	}
}

// TestInitOverwritesEveryField: a recycled request carries none of its past,
// including any field added after Init was written.
func TestInitOverwritesEveryField(t *testing.T) {
	var r Request
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(7)
		case reflect.Uint8, reflect.Uint32:
			f.SetUint(7)
		case reflect.Float64:
			f.SetFloat(7.5)
		case reflect.String:
			f.SetString("stale")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("field %s of kind %s: teach this test to dirty it", v.Type().Field(i).Name, f.Kind())
		}
	}
	blocks := []float64{2, 3}
	r.Init(4, "m", modelid.Intern("m"), model.Long, 1, 5, blocks)
	want := Request{ID: 4, Model: "m", ModelID: modelid.Intern("m"), Class: model.Long, ArriveMs: 1, ExtMs: 5, BlockTimes: blocks, StartMs: -1, DoneMs: -1}
	if !reflect.DeepEqual(r, want) {
		t.Errorf("Init left %+v, want %+v", r, want)
	}
	if got := NewRequest(4, "m", model.Long, 1, 5, blocks); !reflect.DeepEqual(*got, want) {
		t.Errorf("NewRequest built %+v, want %+v", *got, want)
	}
}

func TestE2EAndResponseRatio(t *testing.T) {
	r := newReq(1, "m", 100, 20)
	r.DoneMs = 180
	if got := r.E2EMs(); got != 80 {
		t.Errorf("e2e = %v", got)
	}
	if got := r.ResponseRatio(); got != 4 {
		t.Errorf("rr = %v", got)
	}
}

func TestE2EPanicsWhenIncomplete(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("E2EMs on pending request did not panic")
		}
	}()
	newReq(1, "m", 0, 10).E2EMs()
}

func TestPredictedRR(t *testing.T) {
	r := newReq(1, "m", 0, 10)
	// At t=5, with 15ms of queue ahead: (5 + 15 + 10) / (4*10) = 0.75.
	if got := r.PredictedRR(5, 15, 4); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("predicted rr = %v", got)
	}
}

func TestQueueBasicOps(t *testing.T) {
	q := NewQueue(4)
	if q.PopFront() != nil {
		t.Error("pop from empty queue")
	}
	a := newReq(1, "a", 0, 10)
	b := newReq(2, "b", 0, 20)
	q.PushBack(a)
	q.PushBack(b)
	if q.Len() != 2 || q.At(0) != a || q.At(1) != b {
		t.Error("push order broken")
	}
	if got := q.TotalRemainingMs(); got != 30 {
		t.Errorf("total remaining = %v", got)
	}
	if q.SameTypeCount(modelid.Intern("a")) != 1 || q.SameTypeCount(modelid.Intern("c")) != 0 {
		t.Error("same type count wrong")
	}
	if q.PopFront() != a || q.PopFront() != b || q.PopFront() != nil {
		t.Error("pop order broken")
	}
}

func TestInsertGreedyShortPassesLong(t *testing.T) {
	q := NewQueue(4)
	long := newReq(1, "vgg", 0, 67.5)
	q.InsertGreedy(0, long)
	short := newReq(2, "yolo", 1, 10.8)
	pos := q.InsertGreedy(1, short)
	if pos != 0 {
		t.Errorf("short inserted at %d, want 0", pos)
	}
	if q.At(0) != short || q.At(1) != long {
		t.Error("queue order wrong")
	}
}

func TestInsertGreedyLongDoesNotPassShort(t *testing.T) {
	q := NewQueue(4)
	short := newReq(1, "yolo", 0, 10.8)
	q.InsertGreedy(0, short)
	long := newReq(2, "vgg", 1, 67.5)
	pos := q.InsertGreedy(1, long)
	if pos != 1 {
		t.Errorf("long inserted at %d, want 1", pos)
	}
}

func TestInsertGreedySameTypeFIFO(t *testing.T) {
	q := NewQueue(4)
	first := newReq(1, "yolo", 0, 10.8)
	q.InsertGreedy(0, first)
	second := newReq(2, "yolo", 1, 10.8)
	pos := q.InsertGreedy(1, second)
	if pos != 1 {
		t.Errorf("same-type request inserted at %d, want 1 (FIFO)", pos)
	}
}

func TestInsertGreedySameTypeBarrierStopsBubbling(t *testing.T) {
	// Queue: [yolo(old), vgg]. A new yolo must not pass the old yolo even
	// though it would pass the vgg.
	q := NewQueue(4)
	q.InsertGreedy(0, newReq(1, "yolo", 0, 10.8))
	q.InsertGreedy(0, newReq(2, "vgg", 0.5, 67.5))
	if q.At(0).Model != "yolo" {
		t.Fatal("setup wrong")
	}
	pos := q.InsertGreedy(1, newReq(3, "yolo", 1, 10.8))
	if pos != 1 {
		t.Errorf("new yolo at %d, want 1 (behind old yolo, ahead of vgg)", pos)
	}
	if q.At(1).ID != 3 || q.At(2).Model != "vgg" {
		t.Errorf("order: %v %v %v", q.At(0).ID, q.At(1).ID, q.At(2).ID)
	}
}

func TestReinsertedEarlierArrivalPassesSameType(t *testing.T) {
	// A partially executed request (arrived at t=0) re-enters a queue that
	// holds a same-type later arrival. FIFO means the earlier one goes ahead.
	q := NewQueue(4)
	later := newReq(2, "vgg", 5, 67.5, 22.5, 22.5, 22.5)
	q.InsertGreedy(5, later)
	earlier := newReq(1, "vgg", 0, 67.5, 22.5, 22.5, 22.5)
	earlier.Next = 1 // one block already executed
	pos := q.InsertGreedy(6, earlier)
	if pos != 0 {
		t.Errorf("earlier same-type arrival re-inserted at %d, want 0", pos)
	}
}

func TestInsertGreedySkipsManyAndOrdersBySRPT(t *testing.T) {
	// With one α for all requests, the bubble condition E_b·T_b < E_a·T_a
	// reduces to shortest-remaining-first among distinct types.
	q := NewQueue(4)
	exts := []float64{67.5, 28.35, 20.4, 13.2}
	names := []string{"vgg", "resnet", "gpt", "google"}
	for i, e := range exts {
		q.InsertGreedy(0, newReq(i, names[i], 0, e))
	}
	// They arrived in decreasing size, so greedy insertion should have
	// sorted them ascending.
	for i := 1; i < q.Len(); i++ {
		if q.At(i-1).ExtMs > q.At(i).ExtMs {
			t.Fatalf("queue not sorted by remaining time: %v then %v", q.At(i-1).ExtMs, q.At(i).ExtMs)
		}
	}
	// A new yolo (10.8ms) goes to the very front.
	if pos := q.InsertGreedy(0, newReq(9, "yolo", 0, 10.8)); pos != 0 {
		t.Errorf("yolo at %d", pos)
	}
}

// The bubble condition must agree with brute-force comparison of summed
// predicted response ratios for adjacent pairs.
func TestSwapConditionMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seedRaw int64) bool {
		r := rand.New(rand.NewSource(seedRaw))
		now := 100 * r.Float64()
		alpha := 1 + 9*r.Float64()
		a := newReq(1, "a", now*r.Float64(), 1+60*r.Float64())
		b := newReq(2, "b", now*r.Float64(), 1+60*r.Float64())
		w := 50 * r.Float64()
		// Order (a,b): a waits w, b waits w+Ea.
		sumAB := a.PredictedRR(now, w, alpha) + b.PredictedRR(now, w+a.RemainingMs(), alpha)
		sumBA := b.PredictedRR(now, w, alpha) + a.PredictedRR(now, w+b.RemainingMs(), alpha)
		want := sumBA < sumAB-1e-12
		got := swapBeneficial(a, b, alpha)
		if want != got {
			// Allow boundary ties to disagree within epsilon.
			return math.Abs(sumBA-sumAB) < 1e-9
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestInsertGreedyMixedPlansGap pins the case Smith's rule does not cover: a
// task whose queued chain is not key-monotone. The split a0 (key E·T = 440)
// holds back its unsplit successor a1 (400, as elastic suppression leaves
// it), so x (≈416.2) stops behind a1, while running x before the whole chain
// would lower Σ (W+E)/T by 0.30 %.
func TestInsertGreedyMixedPlansGap(t *testing.T) {
	const alpha = 4
	a0 := newReq(0, "a", 0, 10, 5.5, 5.5)
	a1 := newReq(1, "a", 1, 10, 10)
	x := newReq(2, "x", 2, 10.2)
	q := NewQueue(alpha)
	for _, r := range []*Request{a0, a1, x} {
		q.InsertGreedy(r.ArriveMs, r)
	}
	if !slices.Equal(q.Requests(), []*Request{a0, a1, x}) {
		t.Fatal("InsertGreedy order is not [a0 a1 x]")
	}
	if got := rrCost(q.Requests(), alpha); math.Abs(got-1.564706) > 1e-6 {
		t.Errorf("Σ (W+E)/T of [a0 a1 x] = %.6f, want 1.564706", got)
	}
	best := []*Request{x, a0, a1}
	if got := rrCost(best, alpha); math.Abs(got-1.56) > 1e-6 {
		t.Errorf("Σ (W+E)/T of [x a0 a1] = %.6f, want 1.560000", got)
	}
	if got, want := fifoOptimum(q.Requests(), alpha), rrCost(best, alpha); math.Abs(got-want) > 1e-12 {
		t.Errorf("FIFO-respecting optimum %.6f, want [x a0 a1]'s %.6f", got, want)
	}
}

func TestQueueNeverLosesRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := NewQueue(4)
	inserted := 0
	for i := 0; i < 500; i++ {
		if rng.Float64() < 0.6 || q.Len() == 0 {
			q.InsertGreedy(float64(i), newReq(i, "m"+string(rune('a'+rng.Intn(4))), float64(i), 1+50*rng.Float64()))
			inserted++
		} else {
			if q.PopFront() == nil {
				t.Fatal("pop returned nil on non-empty queue")
			}
			inserted--
		}
		if q.Len() != inserted {
			t.Fatalf("len %d != tracked %d", q.Len(), inserted)
		}
	}
}

// TestElasticDisabled: elastic off is the zero Elastic{} (what
// `splitd -no-elastic` and the ablation's off arm build); a deep
// same-type queue never blocks splitting.
func TestElasticDisabled(t *testing.T) {
	e := Elastic{}
	q := NewQueue(4)
	for i := 0; i < 50; i++ {
		q.PushBack(newReq(i, "x", 0, 10))
	}
	if !e.ShouldSplit(q, "x") {
		t.Error("disabled elastic still blocked splitting")
	}
}

func TestElasticHighLoadTrigger(t *testing.T) {
	e := Elastic{HighLoadQueueLen: 3}
	q := NewQueue(4)
	if !e.ShouldSplit(q, "x") {
		t.Error("empty queue should split")
	}
	for i := 0; i < 3; i++ {
		q.PushBack(newReq(i, "y", 0, 10))
	}
	if e.ShouldSplit(q, "x") {
		t.Error("high load should disable splitting")
	}
}

// TestElasticUnknownModel: a name no request carries is never in a
// same-type run, but the density trigger still holds for it.
func TestElasticUnknownModel(t *testing.T) {
	const name = "elastic-never-interned"
	if _, ok := modelid.Lookup(name); ok {
		t.Fatalf("%s is interned", name)
	}
	e := Elastic{HighLoadQueueLen: 3, SameTypeLimit: 1}
	q := NewQueue(4)
	q.PushBack(newReq(1, "y", 0, 10))
	if !e.ShouldSplit(q, name) {
		t.Error("an unknown model below the density trigger should split")
	}
	q.PushBack(newReq(2, "y", 0, 10))
	q.PushBack(newReq(3, "y", 0, 10))
	if e.ShouldSplit(q, name) {
		t.Error("high load should disable splitting for an unknown model too")
	}
	if _, ok := modelid.Lookup(name); ok {
		t.Error("ShouldSplit interned the name it was asked about")
	}
}

func TestElasticSameTypeTrigger(t *testing.T) {
	e := Elastic{SameTypeLimit: 2}
	q := NewQueue(4)
	q.PushBack(newReq(1, "x", 0, 10))
	if !e.ShouldSplit(q, "x") {
		t.Error("one same-type should still split")
	}
	q.PushBack(newReq(2, "x", 0, 10))
	if e.ShouldSplit(q, "x") {
		t.Error("same-type burst should disable splitting")
	}
	if !e.ShouldSplit(q, "z") {
		t.Error("other models unaffected by x burst")
	}
}

// TestElasticZeroThresholdsDisableTriggers: the zero Elastic is §3.3
// turned off — neither a deep queue nor a same-type run, in flight
// included, ever suppresses a split.
func TestElasticZeroThresholdsDisableTriggers(t *testing.T) {
	var e Elastic
	q := NewQueue(4)
	for i := 0; i < 100; i++ {
		q.PushBack(newReq(i, "x", 0, 10))
	}
	if !e.ShouldSplit(q, "x") {
		t.Error("zero thresholds should never trigger")
	}
	inflight := newReq(100, "x", 0, 10)
	if !e.ShouldSplitWith(q, inflight.ModelID, inflight) {
		t.Error("zero thresholds should never trigger, in-flight run included")
	}
}

func TestDefaultElastic(t *testing.T) {
	e := DefaultElastic()
	if e.HighLoadQueueLen <= 0 || e.SameTypeLimit <= 0 {
		t.Errorf("bad defaults: %+v", e)
	}
}

func TestPredictedPlainRR(t *testing.T) {
	r := newReq(1, "m", 0, 10)
	// At t=5 with 15ms ahead: (5 + 15 + 10) / 10 = 3.
	if got := r.PredictedPlainRR(5, 15); math.Abs(got-3) > 1e-12 {
		t.Errorf("plain rr = %v", got)
	}
}

func TestStarveGuardBlocksPassing(t *testing.T) {
	q := NewQueue(4)
	q.StarveGuardRR = 3
	long := newReq(1, "vgg", 0, 67.5)
	q.InsertGreedy(0, long)
	// At t=200 the long's predicted plain RR is (200+67.5)/67.5 ≈ 3.96 >= 3:
	// a short may no longer pass it.
	short := newReq(2, "yolo", 200, 10.8)
	if pos := q.InsertGreedy(200, short); pos != 1 {
		t.Errorf("short passed a starving long (pos %d)", pos)
	}
	// Before the guard trips (t=50: RR ≈ 1.74) the short still passes.
	q2 := NewQueue(4)
	q2.StarveGuardRR = 3
	q2.InsertGreedy(0, newReq(1, "vgg", 0, 67.5))
	if pos := q2.InsertGreedy(50, newReq(2, "yolo", 50, 10.8)); pos != 0 {
		t.Errorf("short blocked by non-starving long (pos %d)", pos)
	}
}

func TestStarveGuardDisabledByDefault(t *testing.T) {
	q := NewQueue(4)
	q.InsertGreedy(0, newReq(1, "vgg", 0, 67.5))
	if pos := q.InsertGreedy(1e6, newReq(2, "yolo", 1e6, 10.8)); pos != 0 {
		t.Errorf("default queue applied a guard (pos %d)", pos)
	}
}
