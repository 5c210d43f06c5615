// Fleet demonstrates multi-GPU serving: a 2-device server built with the
// functional-options API, least-loaded placement routing a concurrent burst
// across the devices, Dial reading the fleet shape from the server, and
// typed errors surviving the wire (errors.Is works on what the client
// returns, because a typed error's message is its wire code).
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	"split"
	"split/internal/serve"
)

func main() {
	dep, err := split.Deploy()
	if err != nil {
		log.Fatal(err)
	}
	srv, err := split.NewServerWith(dep.Catalog,
		split.WithDevices(2),
		split.WithPlacement("least-loaded"),
		split.WithTimeScale(0.05), // 20x faster than the simulated device
	)
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

	client, err := split.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	devices, placement := client.Fleet()
	fmt.Printf("server is a %d-device fleet with %s placement\n\n", devices, placement)

	// A concurrent burst: the placer routes each arrival to the device with
	// the least expected work, so both devices fill up.
	models := []string{"vgg19", "googlenet", "resnet50", "yolov2", "gpt2", "googlenet"}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		perDev = map[int]int{}
		total  = 2 * len(models)
	)
	for i := 0; i < total; i++ {
		m := models[i%len(models)]
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			reply, err := client.Infer(m)
			if err != nil {
				fmt.Printf("  %-10s failed: %v\n", m, err)
				return
			}
			mu.Lock()
			perDev[reply.Device]++
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	fmt.Println("-- burst served --")
	for d := 0; d < devices; d++ {
		fmt.Printf("  device %d served %d requests\n", d, perDev[d])
	}
	snap := srv.QueueSnapshot()
	for _, ds := range snap.Devices {
		fmt.Printf("  device %d occupancy: %.0f simulated ms\n", ds.Device, ds.BusyMsTotal)
	}

	// Typed errors across the wire: the server's error message begins with
	// the exported error's message, so the client decodes it back.
	fmt.Println("-- typed wire errors --")
	_, err = client.Infer("no-such-model")
	fmt.Printf("  unknown model: errors.Is(err, ErrUnknownModel) = %v (%v)\n",
		errors.Is(err, serve.ErrUnknownModel), err)
}
