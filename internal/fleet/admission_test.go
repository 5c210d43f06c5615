package fleet

import (
	"math"
	"strings"
	"testing"
)

func TestAdmissionDisabled(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{})
	if err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if a != nil {
		t.Fatalf("zero config should yield a nil gate, got %+v", a)
	}
}

func TestAdmissionValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  AdmissionConfig
		want string
	}{
		{"unknown mode", AdmissionConfig{Mode: "typo"}, "unknown admission mode"},
		{"token bucket no rate", AdmissionConfig{Mode: AdmitTokenBucket}, "RatePerSec"},
		{"token bucket NaN rate", AdmissionConfig{Mode: AdmitTokenBucket, RatePerSec: math.NaN()}, "RatePerSec"},
		{"token bucket infinite rate", AdmissionConfig{Mode: AdmitTokenBucket, RatePerSec: math.Inf(1)}, "RatePerSec"},
		{"queue length no cap", AdmissionConfig{Mode: AdmitQueueLength}, "MaxQueue"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewAdmission(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestTokenBucketBurstThenClip(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{Mode: AdmitTokenBucket, RatePerSec: 10, Burst: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The full burst passes back-to-back, then the bucket is empty.
	for i := 0; i < 3; i++ {
		if ok, _ := a.Admit(0, 100, 4, View{}); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, detail := a.Admit(0, 100, 4, View{})
	if ok || detail != DetailTokenBucket {
		t.Fatalf("want rejection with %q, got ok=%v detail=%q", DetailTokenBucket, ok, detail)
	}
	// 100ms at 10 req/s refills exactly one token.
	if ok, _ := a.Admit(100, 100, 4, View{}); !ok {
		t.Fatal("refilled token rejected")
	}
	if ok, _ := a.Admit(100, 100, 4, View{}); ok {
		t.Fatal("second request at t=100 should find the bucket empty")
	}
	st := a.Stats()
	if st.Admitted != 4 || st.Rejected != 2 {
		t.Fatalf("stats = %+v, want 4 admitted / 2 rejected", st)
	}
}

func TestTokenBucketDefaultBurst(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{Mode: AdmitTokenBucket, RatePerSec: 2.4})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Config().Burst; got != 2 {
		t.Fatalf("default burst = %d, want round(2.4) = 2", got)
	}
}

func TestQueueLengthGate(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{Mode: AdmitQueueLength, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := a.Admit(0, 100, 4, View{QueueDepth: 1}); !ok {
		t.Fatal("below cap rejected")
	}
	ok, detail := a.Admit(0, 100, 4, View{QueueDepth: 2})
	if ok || detail != DetailQueueLength {
		t.Fatalf("at cap: want rejection with %q, got ok=%v detail=%q", DetailQueueLength, ok, detail)
	}
}

func TestPredictedRRGate(t *testing.T) {
	a, err := NewAdmission(AdmissionConfig{Mode: AdmitPredictedRR})
	if err != nil {
		t.Fatal(err)
	}
	// Threshold defaults to α: backlog 300 + ext 100 over 100 = RR 4, at the
	// limit — admitted.
	if ok, _ := a.Admit(0, 100, 4, View{ShortestBacklogMs: 300}); !ok {
		t.Fatal("RR exactly at α rejected")
	}
	ok, detail := a.Admit(0, 100, 4, View{ShortestBacklogMs: 301})
	if ok || detail != DetailPredictedRR {
		t.Fatalf("RR over α: want rejection with %q, got ok=%v detail=%q", DetailPredictedRR, ok, detail)
	}
	// An explicit threshold overrides α.
	b, err := NewAdmission(AdmissionConfig{Mode: AdmitPredictedRR, MaxPredictedRR: 10})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := b.Admit(0, 100, 4, View{ShortestBacklogMs: 301}); !ok {
		t.Fatal("RR 4.01 under explicit limit 10 rejected")
	}
}

func TestWindowRolls(t *testing.T) {
	w := NewWindow(4)
	if got := w.Rate(); got != 0 {
		t.Fatalf("empty window rate = %g", got)
	}
	w.Observe(true)
	w.Observe(false)
	if got := w.Rate(); got != 0.5 {
		t.Fatalf("rate after {viol, ok} = %g, want 0.5", got)
	}
	// Fill the window with clean completions; the violation must roll out.
	for i := 0; i < 4; i++ {
		w.Observe(false)
	}
	if got := w.Rate(); got != 0 {
		t.Fatalf("rate after rollout = %g, want 0", got)
	}
}
