// Kvstore: a log-structured key-value store running on NVMe-oF — the
// class of application (Crail-KV, KV-SSD stacks) the paper's related work
// places on disaggregated flash. The same store runs over the adaptive
// fabric and over NVMe/TCP-25G under YCSB-style workloads, showing the
// fabric's effect on a latency-sensitive application beyond HDF5.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"math/rand"

	"nvmeoaf/internal/blockfs"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/kvstore"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/world"
)

const (
	capacity = 256 << 20
	keys     = 2000
	valueLen = 1024
	ops      = 10000
)

// build wires a store over the chosen fabric, client and target on one
// host, and returns it with its engine.
func build(useSHM bool, seed int64) (*sim.Engine, func(p *sim.Proc) *kvstore.Store) {
	w := world.New(seed, nil)
	h := w.Host("h")
	svc, err := w.Service(h, "nqn.kv", world.Spec{SSDName: "kv", Capacity: capacity, Retain: true})
	if err != nil {
		log.Fatal(err)
	}
	o := dial.Options{
		Kind:        dial.TCP25G,
		ConnOptions: session.ConnOptions{QueueDepth: 32},
		TP:          model.DefaultTCPTransport(),
	}
	if useSHM {
		o.Kind, o.Design = dial.OAF, core.DesignSHMZeroCopy
	}
	pr := w.Serve(h, svc, o, 1<<20)
	return w.Engine, func(p *sim.Proc) *kvstore.Store {
		c, err := dial.Connect(p, pr.Link.A, pr.Opts)
		if err != nil {
			log.Fatal(err)
		}
		return kvstore.Open(blockfs.New(w.Engine, c, capacity), kvstore.Config{GroupCommitBytes: 64 << 10})
	}
}

// run loads the store and executes a YCSB-style mix, returning ops/s.
func run(useSHM bool, readPct int) float64 {
	e, open := build(useSHM, 42)
	var opsPerSec float64
	e.Go("ycsb", func(p *sim.Proc) {
		s := open(p)
		rng := rand.New(rand.NewSource(7))
		val := make([]byte, valueLen)
		for i := 0; i < keys; i++ {
			if err := s.Put(p, fmt.Sprintf("user%04d", i), val); err != nil {
				log.Fatal(err)
			}
		}
		if err := s.Flush(p); err != nil {
			log.Fatal(err)
		}
		start := p.Now()
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("user%04d", rng.Intn(keys))
			if rng.Intn(100) < readPct {
				if _, ok, err := s.Get(p, key); err != nil || !ok {
					log.Fatalf("get %s: %v %v", key, ok, err)
				}
			} else {
				if err := s.Put(p, key, val); err != nil {
					log.Fatal(err)
				}
			}
		}
		if err := s.Flush(p); err != nil {
			log.Fatal(err)
		}
		elapsed := p.Now().Sub(start)
		opsPerSec = float64(ops) / elapsed.Seconds()
	})
	if err := e.Run(); err != nil {
		log.Fatal(err)
	}
	return opsPerSec
}

func main() {
	fmt.Printf("log-structured KV store, %d keys x %dB values, %d ops\n", keys, valueLen, ops)
	for _, wl := range []struct {
		name    string
		readPct int
	}{
		{"YCSB-A (50/50 read/update)", 50},
		{"YCSB-B (95/5)", 95},
		{"YCSB-C (100% read)", 100},
	} {
		oafOps := run(true, wl.readPct)
		tcpOps := run(false, wl.readPct)
		fmt.Printf("  %-28s adaptive %8.0f ops/s | tcp-25g %8.0f ops/s | %.2fx\n",
			wl.name, oafOps, tcpOps, oafOps/tcpOps)
	}
}
