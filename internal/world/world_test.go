package world

import (
	"fmt"
	"testing"
	"time"

	"nvmeoaf/internal/cache"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/faults"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/transport"
)

// TestLocalityRule walks the rule over every machine shape, a kind of
// each family and both placements: the link model a pair rides, the
// NICs it rides between, and whether it gets a shared-memory region.
func TestLocalityRule(t *testing.T) {
	port := model.TCP100G()
	rdmaLink, err := dial.RDMA56.Link()
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		make func(w *World, name string) *Machine
	}{
		{"host", (*World).Host},
		{"hairpin", func(w *World, name string) *Machine { return w.Hairpin(name, port) }},
		{"remote", func(w *World, name string) *Machine { return w.Remote(name, port) }},
	}
	for _, shape := range shapes {
		for _, kind := range []dial.Kind{dial.TCP25G, dial.OAF, dial.RDMA56} {
			for _, colocated := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/colocated=%v", shape.name, kind, colocated)
				t.Run(name, func(t *testing.T) {
					w := New(1, nil)
					defer w.Close()
					host := shape.make(w, "target")
					client := host
					if !colocated {
						client = shape.make(w, "client")
					}
					// What the pair must ride: its own link between the
					// ports, unless it is adaptive; then the intra-node
					// path on the kind's link when co-located on a machine
					// that has one (a hairpin machine's is its port), the
					// target's port otherwise.
					wantLink, wantA, wantB, wantRegion := port, client.port, host.port, false
					switch {
					case kind == dial.TCP25G:
						wantLink = model.TCP25G()
					case kind == dial.RDMA56:
						wantLink = rdmaLink
					case colocated && shape.name == "host":
						wantLink, wantA, wantB, wantRegion = model.Loopback(), host.intra, host.intra, true
					case colocated && shape.name == "hairpin":
						wantLink, wantRegion = model.Loopback(), true
					case shape.name == "host":
						wantLink = model.TCP25G()
					}

					lp, a, b, region := path(client, host, kind)
					if lp != wantLink || region != wantRegion {
						t.Errorf("path = %s link, region %v; want %s, %v", lp.Name, region, wantLink.Name, wantRegion)
					}
					if a != wantA || b != wantB {
						t.Errorf("path NICs = %s, %s; want %s, %s", nicName(client, host, a), nicName(client, host, b),
							nicName(client, host, wantA), nicName(client, host, wantB))
					}

					svc, err := w.Service(host, "nqn.test", Spec{SSDName: "ssd", Capacity: 64 << 20})
					if err != nil {
						t.Fatal(err)
					}
					pr := w.Serve(client, svc, dial.Options{
						Kind:        kind,
						ConnOptions: session.ConnOptions{QueueDepth: 8},
						Design:      core.DesignSHMZeroCopy,
					}, 128<<10)
					if got := pr.Link.A.Params(); got != wantLink {
						t.Errorf("served link = %s, want %s", got.Name, wantLink.Name)
					}
					if got := pr.Opts.Region != nil; got != wantRegion {
						t.Errorf("served region %v, want %v", got, wantRegion)
					}
					if pr.Opts.NQN != svc.NQN || len(w.Links) != 1 || w.Links[0] != pr.Link {
						t.Errorf("pair not registered: nqn %q, %d links", pr.Opts.NQN, len(w.Links))
					}
				})
			}
		}
	}
}

// nicName names n as one of the two machines' NICs for failure messages.
func nicName(client, host *Machine, n *netsim.NIC) string {
	for _, m := range []*Machine{client, host} {
		switch n {
		case m.port:
			return m.Name + ".port"
		case m.intra:
			return m.Name + ".intra"
		}
	}
	return "unknown NIC"
}

// TestServiceCrashTakesEveryServer pins a service's crash set: two
// connections to one write-back cached service and a third served after
// the crash was scheduled all go down when the service crashes (a read
// sent while it is down waits for the restart on each), the crash loses the dirty lines written
// through them, and the next flush barrier reports the loss.
func TestServiceCrashTakesEveryServer(t *testing.T) {
	const crashAt, downFor = 2 * time.Millisecond, time.Millisecond
	w := New(1, nil)
	defer w.Close()
	m := w.Host("host0")
	svc, err := w.Service(m, "nqn.crash", Spec{SSDName: "ssd", Capacity: 64 << 20, Retain: true,
		Cache: cache.Config{Bytes: 8 << 20, Mode: cache.WriteBack}})
	if err != nil {
		t.Fatal(err)
	}
	o := dial.Options{Kind: dial.TCP25G, ConnOptions: session.ConnOptions{
		QueueDepth: 8, CommandTimeout: 1500 * time.Microsecond, MaxRetries: 10, RetryBackoff: 200 * time.Microsecond,
	}}
	pairs := []Pair{w.Serve(m, svc, o, 4096), w.Serve(m, svc, o, 4096)}
	inj := faults.NewInjector(w.Engine)
	inj.CrashTarget(svc, crashAt, downFor)
	pairs = append(pairs, w.Serve(m, svc, o, 4096))

	payload := make([]byte, 4096)
	w.Engine.Go("app", func(p *sim.Proc) {
		qs := make([]transport.Queue, len(pairs))
		for i, pr := range pairs {
			if qs[i], err = dial.Connect(p, pr.Link.A, pr.Opts); err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
			if res := transport.Submit(p, qs[i], &transport.IO{Write: true, Offset: int64(i) * 4096, Size: 4096, Data: payload}).Wait(p); res.Err() != nil {
				t.Errorf("write %d: %v", i, res.Err())
			}
		}
		if dirty := svc.Cache.Stats().DirtyBytes; dirty != 3*4096 {
			t.Errorf("dirty bytes before the crash = %d, want %d", dirty, 3*4096)
		}
		// Read through every connection while the service is down: a
		// server that went down serves its read only once it is back.
		p.Sleep(crashAt + downFor/2 - time.Duration(p.Now()))
		if st := svc.Cache.Stats(); st.DirtyBytes != 0 || st.LostLines != 3 {
			t.Errorf("after the crash: %d dirty bytes, %d lost lines; want 0, 3", st.DirtyBytes, st.LostLines)
		}
		reads := make([]*sim.Future[*transport.Result], len(qs))
		for i, q := range qs {
			reads[i] = transport.Submit(p, q, &transport.IO{Offset: int64(i) * 4096, Size: 4096, Data: make([]byte, 4096)})
		}
		for i, f := range reads {
			res := f.Wait(p)
			if res.Err() != nil {
				t.Errorf("read %d across the restart: %v", i, res.Err())
			}
			if res.Latency < downFor/2 {
				t.Errorf("read %d sent while the service was down took %v: its connection did not go down", i, res.Latency)
			}
		}
		if res := transport.Submit(p, qs[0], &transport.IO{Flush: true}).Wait(p); res.Status != nvme.StatusWriteFault {
			t.Errorf("flush after the crash: status %v, want write fault", res.Status)
		}
		for _, q := range qs {
			q.Close()
		}
	})
	if err := w.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(inj.Log) != 2 {
		t.Errorf("fault log = %v, want crash and restart", inj.Log)
	}
}
