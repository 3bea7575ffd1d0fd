package dial

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nvmeoaf/internal/host"
	"nvmeoaf/internal/netsim"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/telemetry"
	"nvmeoaf/internal/transport"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.trace goldens")

// TestTCPRowsKeepTheirIdentity pins what a tcp-* row presents as plain
// NVMe/TCP: the transport type discovery reports, the data pool's name,
// the tcp- label of host and target processes, the path-selected trace
// event, no shared memory, and the exact message exchange of a fixed
// real-data burst (testdata/<kind>.trace).
func TestTCPRowsKeepTheirIdentity(t *testing.T) {
	for _, kind := range []Kind{TCP10G, TCP25G, TCP100G} {
		t.Run(string(kind), func(t *testing.T) {
			tel := telemetry.New()
			o := Options{Kind: kind, ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8, Telemetry: tel}}
			e, link, srv := serve(t, &o)
			defer e.Close()
			if got, want := srv.Pool.Name(), "tcp-data/"+testNQN; got != want {
				t.Errorf("pool %q, want %q", got, want)
			}
			tr := netsim.NewTracer(string(kind))
			link.A.AttachTracer(tr)
			e.Go("app", func(p *sim.Proc) {
				q, err := Connect(p, link.A, o)
				if err != nil {
					t.Fatal(err)
				}
				defer q.Close()
				if c, ok := q.(interface{ SHMEnabled() bool }); ok && c.SHMEnabled() {
					t.Error("a tcp row negotiated shared memory")
				}
				burst(t, p, q)
				entries, err := host.Discover(p, q)
				if err != nil || len(entries) != 1 || entries[0].TrType != nvme.TrTypeTCP {
					t.Errorf("discovery = %+v, %v; want one NVMe/TCP entry", entries, err)
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			var paths []telemetry.Event
			for _, ev := range tel.Events() {
				if ev.Kind == telemetry.EvPathSelected {
					paths = append(paths, ev)
				}
			}
			if len(paths) != 1 || paths[0].Path != "tcp" || paths[0].Note != "nvme-tcp" {
				t.Errorf("path-selected events %+v, want one tcp/nvme-tcp", paths)
			}
			checkGolden(t, filepath.Join("testdata", string(kind)+".trace"), tr.String())

			// A PDU no binding expects panics the process that receives
			// it, and the engine's error names that process.
			for _, side := range []struct {
				toTarget bool
				want     string
			}{
				{true, `process "tcp-server-conn" panicked: tcp server: unexpected PDU`},
				{false, `process "tcp-client-reactor" panicked: tcp client: unexpected PDU`},
			} {
				if err := stray(t, kind, side.toTarget); err == nil || !strings.Contains(err.Error(), side.want) {
					t.Errorf("stray PDU: %v, want %q", err, side.want)
				}
			}
		})
	}
}

// burst writes a 4 KiB payload (in-capsule) and a 160 KiB one (R2T, two
// H2C chunks) at once, then reads both back at once.
func burst(t *testing.T, p *sim.Proc, q transport.Queue) {
	sizes := []int{4 << 10, 160 << 10}
	ios := make([]*transport.IO, len(sizes))
	for i, size := range sizes {
		ios[i] = &transport.IO{Write: true, Offset: int64(i) << 20, Size: size, Data: bytes.Repeat([]byte{byte(0xC0 + i)}, size)}
	}
	for i, f := range transport.SubmitBatch(p, q, ios, nil) {
		if res := f.Wait(p); res.Err() != nil {
			t.Fatalf("write %d: %v", sizes[i], res.Err())
		}
	}
	rds := make([]*transport.IO, len(sizes))
	for i, size := range sizes {
		rds[i] = &transport.IO{Offset: int64(i) << 20, Size: size, Data: make([]byte, size)}
	}
	for i, f := range transport.SubmitBatch(p, q, rds, nil) {
		if res := f.Wait(p); res.Err() != nil || !bytes.Equal(res.Data, ios[i].Data) {
			t.Fatalf("read-back %d: err %v, bytes equal %v", sizes[i], res.Err(), bytes.Equal(res.Data, ios[i].Data))
		}
	}
}

// stray connects on kind, then sends an ICResp to the target or an ICReq
// to the host, and returns the engine's error.
func stray(t *testing.T, kind Kind, toTarget bool) error {
	o := Options{Kind: kind, ConnOptions: session.ConnOptions{NQN: testNQN, QueueDepth: 8}}
	e, link, _ := serve(t, &o)
	defer e.Close()
	e.Go("app", func(p *sim.Proc) {
		if _, err := Connect(p, link.A, o); err != nil {
			t.Fatal(err)
		}
		if toTarget {
			transport.SendPDUs(p, link.A, &pdu.ICResp{})
		} else {
			transport.SendPDUs(p, link.B, &pdu.ICReq{})
		}
	})
	return e.Run()
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("trace differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
