// Lifecycle demonstrates request-lifecycle hardening on the serving path:
// deadline shedding (a request that cannot meet α·t_ext is dropped at a
// block boundary instead of occupying the device), client cancellation via
// the Submit/Cancel/Wait RPCs, fault-injected block retries, and a bounded
// graceful drain that finishes the backlog or sheds what remains.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"split"
	"split/internal/gpusim"
	"split/internal/sched"
	"split/internal/serve"
)

func main() {
	dep, err := split.Deploy()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := split.NewServer(split.ServerConfig{
		Knobs: split.Knobs{
			Alpha:            4,
			Elastic:          sched.DefaultElastic(),
			EnforceDeadlines: true, // every request gets deadline = arrive + α·t_ext
			PredictiveShed:   true, // shed work that cannot finish in time, even early
			Faults: &gpusim.FaultInjector{
				Seed:        7,
				SpikeProb:   0.05,
				SpikeFactor: 3,
				FailProb:    0.02,
				MaxRetries:  2,
			},
		},
		Catalog:   dep.Catalog,
		TimeScale: 0.05, // 20x faster than the simulated device
	})
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(l); err != nil {
		log.Fatal(err)
	}
	defer srv.Stop()
	fmt.Printf("serving %d models on %s with deadlines and fault injection\n\n", len(dep.Catalog), srv.Addr())

	client, err := split.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// 1. Deadline shedding: a classification with a deliberately impossible
	// deadline (far under its own t_ext) is doomed on arrival; the
	// predictive sweep sheds it before it ever occupies the device.
	fmt.Println("-- deadline shedding --")
	if _, err := client.InferDeadline("googlenet", 1); err != nil {
		fmt.Printf("  googlenet with 1ms deadline: shed=%v err=%v\n", serve.IsShed(err), err)
	} else {
		fmt.Println("  googlenet with 1ms deadline: unexpectedly served")
	}

	// 2. Client cancellation: while a long detection holds the device, a
	// queued request is submitted asynchronously and then canceled — it is
	// removed from the queue and never runs a block.
	fmt.Println("-- cancellation --")
	blocker, err := client.Submit("vgg19", 0)
	if err != nil {
		log.Fatal(err)
	}
	victim, err := client.Submit("googlenet", 0)
	if err != nil {
		log.Fatal(err)
	}
	state, err := client.Cancel(victim)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := client.Wait(victim); err != nil {
		fmt.Printf("  req %d canceled while %s: %v\n", victim, state, err)
	} else {
		fmt.Printf("  req %d finished before the cancel landed (%s)\n", victim, state)
	}
	if _, err := client.Wait(blocker); err != nil {
		fmt.Println("  vgg19 blocker:", err)
	}

	// 3. Graceful drain: queue a backlog, then drain with a budget long
	// enough to finish it — a clean drain sheds nothing.
	fmt.Println("-- graceful drain --")
	ids := make([]int, 0, 4)
	for i := 0; i < 4; i++ {
		id, err := client.Submit("googlenet", 0)
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
	}
	timedOut := srv.Drain(5 * time.Second)
	served, shed := 0, 0
	for _, id := range ids {
		if _, err := client.Wait(id); err == nil {
			served++
		} else if serve.IsShed(err) {
			shed++ // deadline-shed while draining still counts as shed
		}
	}
	fmt.Printf("  drained: %d served, %d shed, %d past the drain timeout\n", served, shed, timedOut)
}
