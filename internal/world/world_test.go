package world

import (
	"fmt"
	"testing"

	"nvmeoaf/internal/core"
	"nvmeoaf/internal/dial"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/session"
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
