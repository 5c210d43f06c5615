package sched_test

import (
	"fmt"

	"split/internal/model"
	"split/internal/sched"
)

// ExampleQueue_InsertGreedy walks Algorithm 1: a long request waits, a
// short one arrives and bubbles in front of it, while a same-task request
// stays FIFO.
func ExampleQueue_InsertGreedy() {
	q := sched.NewQueue(4) // α = 4

	long := sched.NewRequest(0, "vgg19", model.Long, 0, 67.5, []float64{22.5, 22.5, 22.5})
	fmt.Println("long at", q.InsertGreedy(0, long))

	short := sched.NewRequest(1, "yolov2", model.Short, 5, 10.8, []float64{10.8})
	fmt.Println("short at", q.InsertGreedy(5, short))

	short2 := sched.NewRequest(2, "yolov2", model.Short, 6, 10.8, []float64{10.8})
	fmt.Println("second short at", q.InsertGreedy(6, short2))

	// Output:
	// long at 0
	// short at 0
	// second short at 1
}

// ExampleRequest_PredictedRR previews a queued request's response ratio.
func ExampleRequest_PredictedRR() {
	r := sched.NewRequest(0, "yolov2", model.Short, 0, 10.8, []float64{10.8})
	// At t=10 with 20 ms of work ahead, against a target of 4x10.8 ms:
	fmt.Printf("%.2f\n", r.PredictedRR(10, 20, 4))
	// Output:
	// 0.94
}

// ExampleElastic_ShouldSplit shows the §3.3 elastic mechanism suspending
// splitting during a same-type burst.
func ExampleElastic_ShouldSplit() {
	e := sched.Elastic{SameTypeLimit: 2, HighLoadQueueLen: 10}
	q := sched.NewQueue(4)
	fmt.Println("empty queue:", e.ShouldSplit(q, "vgg19"))
	for i := 0; i < 2; i++ {
		q.PushBack(sched.NewRequest(i, "vgg19", model.Long, 0, 67.5, []float64{67.5}))
	}
	fmt.Println("after burst:", e.ShouldSplit(q, "vgg19"))
	fmt.Println("other model:", e.ShouldSplit(q, "yolov2"))
	// Output:
	// empty queue: true
	// after burst: false
	// other model: true
}
