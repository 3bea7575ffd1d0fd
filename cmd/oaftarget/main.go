// Command oaftarget brings up a simulated NVMe-oAF storage service,
// connects a probe client over the chosen fabric, runs a short smoke
// workload, and prints the target-side state: negotiated parameters,
// buffer pool usage, shared-memory region geometry, and device counters.
// It is the introspection tool for checking a deployment's configuration
// before running real workloads.
package main

import (
	"flag"
	"fmt"
	"os"

	"nvmeoaf/oaf"
)

func main() {
	fabric := oaf.FabricAdaptive
	flag.StringVar((*string)(&fabric), "fabric", string(fabric), "probe fabric kind, as oafperf's Kind names it (e.g. tcp-25g, rdma-ib56)")
	remote := flag.Bool("remote", false, "place the probe client on a different host (locality check fails)")
	capacity := flag.Int64("capacity", 1<<30, "SSD capacity in bytes")
	qd := flag.Int("qd", 32, "probe queue depth")
	trace := flag.Bool("trace", false, "print the protocol trace of the smoke I/O")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()
	if _, err := fabric.Link(); err != nil {
		fmt.Fprintln(os.Stderr, "oaftarget:", err)
		os.Exit(2)
	}

	c := oaf.NewCluster(oaf.Config{Seed: *seed})
	must(c.AddHost("storage-host"))
	clientHost := "storage-host"
	if *remote {
		must(c.AddHost("compute-host"))
		clientHost = "compute-host"
	}
	must(c.AddTarget("storage-host", "nqn.2022-06.io.oaf:probe", oaf.TargetConfig{SSDCapacity: *capacity}))

	err := c.Run(func(ctx *oaf.Ctx) error {
		ctx = ctx.On(clientHost)
		q, err := ctx.Connect("nqn.2022-06.io.oaf:probe", oaf.ConnectOptions{
			Fabric: fabric, QueueDepth: *qd,
		})
		if err != nil {
			return err
		}
		defer q.Close()
		fmt.Printf("target nqn.2022-06.io.oaf:probe on storage-host\n")
		fmt.Printf("  probe client host   : %s\n", clientHost)
		fmt.Printf("  fabric              : %s\n", fabric)
		fmt.Printf("  shared-memory path  : %v\n", q.SharedMemory)
		fmt.Printf("  queue depth         : %d\n", *qd)
		fmt.Printf("  capacity            : %d bytes\n", *capacity)

		// Smoke I/O: one write, one read, report the breakdown.
		wres, err := q.WriteModeled(0, 128<<10)
		if err != nil {
			return fmt.Errorf("smoke write: %w", err)
		}
		rres, err := q.ReadModeled(0, 128<<10)
		if err != nil {
			return fmt.Errorf("smoke read: %w", err)
		}
		fmt.Printf("  smoke 128K write    : %v (device %v, fabric %v, other %v)\n",
			wres.Latency, wres.DeviceTime, wres.FabricTime, wres.OtherTime)
		fmt.Printf("  smoke 128K read     : %v (device %v, fabric %v, other %v)\n",
			rres.Latency, rres.DeviceTime, rres.FabricTime, rres.OtherTime)
		if *trace {
			fmt.Print(q.Trace())
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "oaftarget:", err)
		os.Exit(1)
	}
	fmt.Printf("  virtual time at exit: %v\n", c.Now())
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "oaftarget:", err)
		os.Exit(1)
	}
}
