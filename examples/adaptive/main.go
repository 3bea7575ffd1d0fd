// Adaptive: discovery-driven bring-up over the adaptive fabric, then
// contrasting workloads through the public workload runner, each with
// the paper's device/fabric/other latency breakdown. The §4.5 chunk and
// busy-poll auto-tuning stay off here; internal/core's tests cover them.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"time"

	"nvmeoaf/oaf"
)

func main() {
	cluster := oaf.NewCluster(oaf.Config{Seed: 21})
	if err := cluster.AddHost("hostA"); err != nil {
		log.Fatal(err)
	}
	for _, nqn := range []string{"nqn.adaptive:a", "nqn.adaptive:b"} {
		if err := cluster.AddTarget("hostA", nqn, oaf.TargetConfig{SSDCapacity: 1 << 30}); err != nil {
			log.Fatal(err)
		}
	}

	err := cluster.Run(func(ctx *oaf.Ctx) error {
		// Discovery-driven bring-up: ask the first target what it
		// exposes before committing to a namespace.
		probe, err := ctx.Connect("nqn.adaptive:a", oaf.ConnectOptions{QueueDepth: 4})
		if err != nil {
			return err
		}
		subs, err := probe.Discover()
		probe.Close()
		if err != nil {
			return err
		}
		fmt.Println("discovered subsystems:")
		for _, s := range subs {
			fmt.Printf("  %-18s transport=%s addr=%s\n", s.NQN, s.Transport, s.Address)
		}

		q, err := ctx.Connect(subs[0].NQN, oaf.ConnectOptions{QueueDepth: 32})
		if err != nil {
			return err
		}
		defer q.Close()

		// Run contrasting workloads through the public runner and watch
		// the breakdown shift: writes are device-dominated over the
		// adaptive fabric, reads show the same with a higher device share.
		for _, w := range []struct {
			name string
			spec oaf.Workload
		}{
			{"seq write 128K", oaf.Workload{Sequential: true, ReadPercent: 0, IOSize: 128 << 10, QueueDepth: 32, Duration: 100 * time.Millisecond}},
			{"seq read 128K", oaf.Workload{Sequential: true, ReadPercent: 100, IOSize: 128 << 10, QueueDepth: 32, Duration: 100 * time.Millisecond}},
			{"rand mixed 70:30 4K", oaf.Workload{ReadPercent: 70, IOSize: 4 << 10, QueueDepth: 32, Duration: 100 * time.Millisecond}},
		} {
			res, err := ctx.RunWorkload(q, w.spec)
			if err != nil {
				return err
			}
			fmt.Printf("%-20s %.2f GB/s, avg %v (device %v / fabric %v / other %v), p99.99 %v\n",
				w.name, res.GBps, res.AvgLatency.Round(time.Microsecond),
				res.DeviceTime.Round(time.Microsecond), res.FabricTime.Round(time.Microsecond),
				res.OtherTime.Round(time.Microsecond), res.P9999.Round(time.Microsecond))
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
