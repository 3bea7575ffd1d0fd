// Tailtuning: explore the TCP-channel knobs the adaptive fabric tunes —
// application-level chunk size (§4.5, Fig 9) and socket busy-poll budget
// (Fig 10) — plus the tail-latency contrast between fabrics (Fig 13).
//
//	go run ./examples/tailtuning
package main

import (
	"fmt"
	"log"
	"time"

	"nvmeoaf/oaf"
)

// measure runs a burst of mixed 128K I/O and returns (avg, worst) latency.
func measure(fabric oaf.Fabric, chunk int, poll time.Duration) (time.Duration, time.Duration) {
	cluster := oaf.NewCluster(oaf.Config{Seed: 11})
	if err := cluster.AddHost("hostA"); err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddTarget("hostA", "nqn.tune", oaf.TargetConfig{SSDCapacity: 1 << 30}); err != nil {
		log.Fatal(err)
	}
	var avg, worst time.Duration
	err := cluster.Run(func(ctx *oaf.Ctx) error {
		q, err := ctx.Connect("nqn.tune", oaf.ConnectOptions{
			Fabric: fabric, QueueDepth: 8, ChunkSize: chunk, BusyPoll: poll,
		})
		if err != nil {
			return err
		}
		defer q.Close()
		const n = 200
		var total time.Duration
		for i := 0; i < n; i++ {
			var res *oaf.Result
			var err error
			if i%10 < 3 {
				res, err = q.WriteModeled(int64(i)*(128<<10), 128<<10)
			} else {
				res, err = q.ReadModeled(int64(i)*(128<<10), 128<<10)
			}
			if err != nil {
				return err
			}
			total += res.Latency
			if res.Latency > worst {
				worst = res.Latency
			}
		}
		avg = total / n
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return avg, worst
}

func main() {
	fmt.Println("chunk-size tuning (TCP-25G, serial mixed 128K):")
	for _, chunk := range []int{64 << 10, 128 << 10, 512 << 10} {
		avg, worst := measure(oaf.FabricTCP25G, chunk, 0)
		fmt.Printf("  chunk %4dK : avg %8v  worst %8v\n", chunk>>10, avg, worst)
	}

	fmt.Println("busy-poll tuning (TCP-25G):")
	for _, poll := range []time.Duration{0, 25 * time.Microsecond, 100 * time.Microsecond} {
		label := "interrupt"
		if poll > 0 {
			label = poll.String()
		}
		avg, worst := measure(oaf.FabricTCP25G, 0, poll)
		fmt.Printf("  %-10s : avg %8v  worst %8v\n", label, avg, worst)
	}

	fmt.Println("fabric tail comparison (serial mixed 128K):")
	for _, f := range []oaf.Fabric{oaf.FabricTCP25G, oaf.FabricRDMA56G, oaf.FabricAdaptive} {
		avg, worst := measure(f, 0, 0)
		fmt.Printf("  %-10s : avg %8v  worst %8v (worst/avg %.1fx)\n",
			f, avg, worst, float64(worst)/float64(avg))
	}
}
