package tcp

import (
	"time"

	"nvmeoaf/internal/mempool"
	"nvmeoaf/internal/model"
	"nvmeoaf/internal/nvme"
	"nvmeoaf/internal/pdu"
	"nvmeoaf/internal/session"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/target"
	"nvmeoaf/internal/telemetry"
)

// ServerConfig configures the target-side NVMe/TCP transport.
type ServerConfig struct {
	session.ServeOptions
	// TP holds protocol knobs; DataBuffers chunk-sized buffers form the
	// shared data pool (R2T credits).
	TP model.TCPTransportParams
	// PoisonPool fills freed data-pool elements with mempool.PoisonByte
	// so stale reads of returned buffers surface as corruption in
	// data-integrity tests instead of silently passing.
	PoisonPool bool
}

// Server is the NVMe/TCP transport of one target: it owns the shared data
// buffer pool and serves any number of connections through the session
// engine.
type Server struct {
	*session.Target
	cfg  ServerConfig
	pool *mempool.Pool
}

// NewServer creates the transport for tgt with a fresh buffer pool.
func NewServer(e *sim.Engine, tgt *target.Target, cfg ServerConfig) *Server {
	cfg.TP = cfg.TP.OrDefault()
	s := &Server{
		cfg:  cfg,
		pool: mempool.New("tcp-data/"+cfg.NQN, cfg.TP.ChunkSize, cfg.TP.DataBuffers),
	}
	s.pool.SetPoison(cfg.PoisonPool)
	s.Target = session.NewTarget(e, tgt, session.TargetConfig{
		ServeOptions:     cfg.ServeOptions,
		Label:            "tcp",
		ChunkSize:        cfg.TP.ChunkSize,
		BatchSize:        cfg.TP.BatchSize,
		BusyPoll:         cfg.TP.BusyPoll,
		InterruptWakeups: true,
		Pool:             s.pool,
	}, (*tcpTargetWire)(s))
	return s
}

// Pool exposes the data buffer pool (for memory-footprint reporting in the
// chunk-size experiment).
func (s *Server) Pool() *mempool.Pool { return s.pool }

// tcpTargetWire binds the engine's connections to the plain-TCP data
// path.
type tcpTargetWire Server

func (s *tcpTargetWire) NewConn(c *session.Conn) session.ConnWire {
	return &tcpConnWire{s: (*Server)(s), c: c}
}

// tcpConnWire is the per-connection TCP wire: a plain ICResp handshake,
// reads streamed as chunked C2HData, writes in-capsule or via R2T flow
// control — all through the engine's shared machinery.
type tcpConnWire struct {
	s *Server
	c *session.Conn
}

func (w *tcpConnWire) OnICReq(req *pdu.ICReq) {
	w.c.Target().Telemetry().Inc(telemetry.CtrSrvTCPConns)
	w.c.Post(&pdu.ICResp{
		PFV:        req.PFV,
		CPDA:       4,
		MaxH2CData: uint32(w.s.cfg.TP.ChunkSize),
	})
}

func (w *tcpConnWire) TrType() uint8 { return nvme.TrTypeTCP }

func (w *tcpConnWire) PreLoop() {}

func (w *tcpConnWire) DispatchRead(cmd nvme.Command, transit time.Duration) {
	w.c.StartRead(cmd, transit, nil)
}

func (w *tcpConnWire) DispatchWrite(cap *pdu.CapsuleCmd, size int, transit time.Duration) {
	inCap := len(cap.Data)
	if inCap == 0 {
		inCap = cap.VirtualLen
	}
	if inCap > 0 {
		// In-capsule flow: one message carried command and payload.
		w.c.ExecWrite(cap.Cmd, size, cap.Data, transit, nil, 0)
		return
	}
	w.c.StartConservativeWrite(cap.Cmd, size, transit)
}

func (w *tcpConnWire) HandlePDU(p *sim.Proc, u pdu.PDU, transit time.Duration) bool {
	return false
}

func (w *tcpConnWire) Teardown() {}
