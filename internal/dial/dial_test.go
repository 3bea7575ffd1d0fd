package dial

import (
	"bytes"
	"testing"

	"nvmeoaf/internal/bdev"
	"nvmeoaf/internal/core"
	"nvmeoaf/internal/host"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/transport"
)

const testNQN = "nqn.dial"

// serve stands one retained-data subsystem up behind o.Kind's transport
// on the kind's native link.
func serve(t *testing.T, o *Options) (*sim.Engine, *netsim.Link, *Server) {
	t.Helper()
	e := sim.NewEngine(1)
	tgt := target.New(e, model.DefaultHost())
	sub, err := tgt.AddSubsystem(testNQN)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.AddNamespace(1, bdev.NewSimSSD(e, "d", 64<<20, model.DefaultSSD(), true, transport.BlockSize)); err != nil {
		t.Fatal(err)
	}
	lp, err := o.Kind.Link()
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLoopLink(e, lp)
	if o.Kind.Adaptive() {
		o.Design, o.Fabric = core.DesignSHMZeroCopy, core.NewFabric(e, model.DefaultSHM())
	}
	srv := Serve(e, tgt, link.B, *o)
	if o.Kind.Adaptive() {
		if o.Region, err = o.Fabric.RegionFor(o.Design, "h", "h", 128<<10, 128<<10, 8); err != nil || o.Region == nil {
			t.Fatalf("region: %v, %v", o.Region, err)
		}
	}
	return e, link, srv
}

// TestEveryKindServesAndConnects is the table's own test: each fabric
// kind, served and connected through this package on its native link,
// moves real bytes both ways at a small and a large size, advertises its
// binding's transport type, and has a data pool exactly when its binding
// has one. The adaptive kinds, given a region, negotiate shared memory.
func TestEveryKindServesAndConnects(t *testing.T) {
	for _, tc := range []struct {
		kind   Kind
		trType uint8
		pool   bool
	}{
		{TCP10G, nvme.TrTypeTCP, true},
		{TCP25G, nvme.TrTypeTCP, true},
		{TCP100G, nvme.TrTypeTCP, true},
		{RDMA56, nvme.TrTypeRDMA, false},
		{RoCE100, nvme.TrTypeRDMA, false},
		{OAF, nvme.TrTypeAdaptive, true},
		{OAFRDMACtl, nvme.TrTypeAdaptive, true},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			o := Options{Kind: tc.kind, ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8}}
			e, link, srv := serve(t, &o)
			defer e.Close()
			if (srv.Pool != nil) != tc.pool {
				t.Errorf("pool present = %v, want %v", srv.Pool != nil, tc.pool)
			}
			e.Go("app", func(p *sim.Proc) {
				q, err := Connect(p, link.A, o)
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				c, _ := q.(interface{ SHMEnabled() bool })
				if shm := c != nil && c.SHMEnabled(); shm != tc.kind.Adaptive() {
					t.Errorf("shared memory negotiated = %v, want %v", shm, tc.kind.Adaptive())
				}
				for i, size := range []int{4 << 10, 128 << 10} {
					data := bytes.Repeat([]byte{byte(0xA0 + i)}, size)
					off := int64(i) << 20
					if res := transport.Submit(p, q, &transport.IO{Write: true, Offset: off, Size: size, Data: data}).Wait(p); res.Err() != nil {
						t.Fatalf("write %d: %v", size, res.Err())
					}
					res := transport.Submit(p, q, &transport.IO{Offset: off, Size: size, Data: make([]byte, size)}).Wait(p)
					if res.Err() != nil || !bytes.Equal(res.Data, data) {
						t.Fatalf("read-back %d: err %v, bytes equal %v", size, res.Err(), bytes.Equal(res.Data, data))
					}
				}
				entries, err := host.Discover(p, q)
				if err != nil || len(entries) != 1 || entries[0].TrType != tc.trType {
					t.Errorf("discovery = %+v, %v; want one entry of transport type %#x", entries, err, tc.trType)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnknownKind(t *testing.T) {
	if _, err := Kind("carrier-pigeon").Link(); err == nil {
		t.Error("Link of an unknown kind returned no error")
	}
	if Kind("carrier-pigeon").Adaptive() {
		t.Error("an unknown kind reports adaptive")
	}
}

// TestFailedConnectReturnsNilQueue pins that a refused connect hands
// back an untyped nil, on every binding: callers test q == nil.
func TestFailedConnectReturnsNilQueue(t *testing.T) {
	for _, kind := range []Kind{TCP25G, RDMA56, OAF} {
		o := Options{Kind: kind, ConnOptions: session.ConnOptions{NQN: testNQN}}
		e, link, _ := serve(t, &o)
		o.NQN = "nqn.nobody-serves-this"
		e.Go("app", func(p *sim.Proc) {
			q, err := Connect(p, link.A, o)
			if err == nil || q != nil {
				t.Errorf("%s: Connect to an unknown NQN = (%v, %v), want (nil, error)", kind, q, err)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
	if q, err := Connect(nil, nil, Options{Kind: "carrier-pigeon"}); err == nil || q != nil {
		t.Errorf("Connect on an unknown kind = (%v, %v), want (nil, error)", q, err)
	}
}
