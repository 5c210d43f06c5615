package split_test

import (
	"fmt"

	"split"
)

// ExampleSplitModel splits a long model into evenly-sized blocks and prints
// the plan's quality metrics.
func ExampleSplitModel() {
	g, err := split.LoadModel("resnet50")
	if err != nil {
		panic(err)
	}
	plan, err := split.SplitModel(g, 2, split.DefaultCost())
	if err != nil {
		panic(err)
	}
	fmt.Printf("blocks=%d\n", plan.NumBlocks())
	fmt.Printf("even within %.1f ms\n", plan.StdDevMs)
	// Output:
	// blocks=2
	// even within 0.0 ms
}

// ExampleExpectedWait shows Eq. 1: even blocks halve the expected waiting
// latency of a randomly arriving request compared to an unsplit model.
func ExampleExpectedWait() {
	unsplit := split.ExpectedWait([]float64{60})
	even := split.ExpectedWait([]float64{30, 30})
	fmt.Printf("unsplit %.0f ms, two even blocks %.0f ms\n", unsplit, even)
	// Output:
	// unsplit 30 ms, two even blocks 15 ms
}

// ExampleNewSystem runs the Figure 1 micro-scenario under FCFS and SPLIT.
func ExampleNewSystem() {
	dep, err := split.Deploy()
	if err != nil {
		panic(err)
	}
	arrivals := []split.Arrival{
		{ID: 0, Model: "vgg19", AtMs: 0},
		{ID: 1, Model: "yolov2", AtMs: 5},
	}
	for _, name := range []string{"ClockWork", "SPLIT"} {
		sys, err := split.NewSystem(name)
		if err != nil {
			panic(err)
		}
		recs := sys.Run(arrivals, dep.Catalog, nil)
		fmt.Printf("%s: short request response ratio %.1f\n", name, recs[1].ResponseRatio())
	}
	// Output:
	// ClockWork: short request response ratio 6.8
	// SPLIT: short request response ratio 2.9
}

// ExampleScenarios lists the Table 2 evaluation scenarios.
func ExampleScenarios() {
	for _, sc := range split.Scenarios()[:2] {
		fmt.Printf("%s: λ=%.0fms (%s)\n", sc.Name, sc.MeanIntervalMs, sc.Load)
	}
	// Output:
	// Scenario1: λ=160ms (Low)
	// Scenario2: λ=150ms (Low)
}

// ExampleTracer_Gantt draws the Figure 1 timeline that examples/quickstart
// prints: vgg19 split into three blocks starts at 0, yolov2 arrives at 5 ms.
// SPLIT runs yolov2 at vgg19's first block boundary; ClockWork makes it wait
// for the whole long model.
func ExampleTracer_Gantt() {
	vgg, err := split.LoadModel("vgg19")
	if err != nil {
		panic(err)
	}
	yolo, err := split.LoadModel("yolov2")
	if err != nil {
		panic(err)
	}
	plan, err := split.SplitModel(vgg, 3, split.DefaultCost())
	if err != nil {
		panic(err)
	}
	catalog := split.NewCatalog(map[string]*split.Graph{"vgg19": vgg, "yolov2": yolo},
		map[string]*split.SplitPlan{"vgg19": plan})
	arrivals := []split.Arrival{
		{ID: 0, Model: "vgg19", AtMs: 0},
		{ID: 1, Model: "yolov2", AtMs: 5},
	}
	for _, name := range []string{"SPLIT", "ClockWork"} {
		sys, err := split.NewSystem(name)
		if err != nil {
			panic(err)
		}
		tracer := split.NewTracer()
		sys.Run(arrivals, catalog, tracer)
		fmt.Printf("== %s ==\n%s", name, tracer.Gantt(0, 110, 2.2))
	}
	// Output:
	// == SPLIT ==
	// req0    vgg19      |############....########################.........|
	// req1    yolov2     |...........######................................|
	// == ClockWork ==
	// req0    vgg19      |###############################..................|
	// req1    yolov2     |..............................######.............|
}
