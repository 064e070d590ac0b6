// Package exex implements Parsl's Extreme Scale Executor (§4.3.2). EXEX
// targets the largest machines by replacing per-worker network connections
// with MPI inside each worker pool: rank 0 of a pool acts as the manager,
// speaking the interchange protocol on behalf of the worker ranks, which
// communicate over the (simulated) MPI fabric. The hierarchy is what lets
// EXEX reach 262 144 workers where connection-per-worker designs exhaust the
// hub.
//
// Rank 0 is not a second implementation of the manager protocol: it is an
// ordinary htex manager agent (htex.StartAgent) — registration, prefetch,
// result batching, heartbeats, cancellation, clean drain and the NACK
// repair all come from there — whose worker i hands each task to MPI rank
// i+1 and blocks for its result instead of running the kernel itself. Tasks
// and results cross the MPI fabric in the same stateless frames as every
// other leg (serialize.AppendTasks/AppendResults).
//
// The cost is MPI's fault model: a single rank failure aborts the entire
// pool. The aborted communicator stops the agent, its connection drops, and
// the interchange reports every in-flight task of the pool lost. The
// recommended mitigation, several smaller pools per scheduler job, is the
// deployment shape New builds (one pool per node).
package exex

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/mpi"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// MPI message tags used inside a pool.
const (
	tagTask   = 1
	tagResult = 2
)

// PoolConfig tunes one MPI worker pool.
type PoolConfig struct {
	// Ranks is the MPI communicator size: 1 manager + (Ranks-1) workers
	// (default and minimum 2).
	Ranks int
	// Prefetch, ResultFlush and HeartbeatPeriod configure the rank-0 agent
	// exactly as the same htex.ManagerConfig fields do, with the same
	// defaults.
	Prefetch        int
	ResultFlush     int
	HeartbeatPeriod time.Duration
	// MPILatency simulates fabric point-to-point latency.
	MPILatency time.Duration
}

func (c *PoolConfig) normalize() {
	if c.Ranks < 2 {
		c.Ranks = 2
	}
}

// agent is the rank-0 manager configuration: one agent worker per worker
// rank.
func (c PoolConfig) agent() htex.ManagerConfig {
	return htex.ManagerConfig{
		Workers:         c.Ranks - 1,
		Prefetch:        c.Prefetch,
		ResultFlush:     c.ResultFlush,
		HeartbeatPeriod: c.HeartbeatPeriod,
	}
}

// Pool is one MPI job: a rank-0 manager agent plus worker ranks.
type Pool struct {
	id    string
	comm  *mpi.Comm
	reg   *serialize.Registry
	agent *htex.Manager
}

// StartPool launches an MPI pool whose rank 0 registers with the interchange
// at addr.
func StartPool(tr simnet.Transport, addr, id string, reg *serialize.Registry, cfg PoolConfig) (*Pool, error) {
	cfg.normalize()
	comm, err := mpi.NewComm(cfg.Ranks)
	if err != nil {
		return nil, fmt.Errorf("exex: pool %s: %w", id, err)
	}
	comm.SetLatency(cfg.MPILatency)
	p := &Pool{id: id, comm: comm, reg: reg}
	p.agent, err = htex.StartAgent(tr, addr, id, cfg.agent(), p.run)
	if err != nil {
		return nil, fmt.Errorf("exex: pool %s: %w", id, err)
	}
	for r := 1; r < cfg.Ranks; r++ {
		go p.workerRank(r)
	}
	// Whatever stops the agent — the interchange hanging up or going
	// silent, a drain, a kill — takes the MPI job down with it.
	go func() {
		<-p.agent.Done()
		comm.Abort(-1)
	}()
	return p, nil
}

// ID returns the pool's interchange identity.
func (p *Pool) ID() string { return p.id }

// Executed returns tasks completed by this pool.
func (p *Pool) Executed() int64 { return p.agent.Executed() }

// Comm exposes the communicator for failure injection in tests.
func (p *Pool) Comm() *mpi.Comm { return p.comm }

// run is the agent's Runner: worker i owns rank i+1, so it sends the task
// there and blocks for that rank's result. The argument payload inside the
// task frame is the submit-time encoding, forwarded byte-for-byte — rank 0
// never re-serializes arguments. An aborted communicator stops the agent.
func (p *Pool) run(worker int, w serialize.WireTask) (serialize.ResultMsg, error) {
	rank := worker + 1
	if err := p.comm.Send(0, rank, tagTask, serialize.AppendTasks(nil, []serialize.WireTask{w})); err != nil {
		return serialize.ResultMsg{}, err
	}
	env, err := p.comm.Recv(0, rank, tagResult)
	if err != nil {
		return serialize.ResultMsg{}, err
	}
	res, err := serialize.ParseResults(env.Data)
	if err != nil || len(res) != 1 {
		return serialize.ResultMsg{ID: w.ID, Err: fmt.Sprintf("exex: rank %d result: %v", rank, err)}, nil
	}
	return res[0], nil
}

// workerRank is the code running on MPI ranks 1..n-1: receive a task over
// MPI, execute, send the result back to rank 0. Every task gets an answer —
// rank 0's worker is blocked on it.
func (p *Pool) workerRank(rank int) {
	workerID := fmt.Sprintf("%s/rank%d", p.id, rank)
	for {
		env, err := p.comm.Recv(rank, 0, tagTask)
		if err != nil {
			p.agent.Stop() // communicator aborted: the whole pool dies
			return
		}
		var res serialize.ResultMsg
		if ws, err := serialize.ParseTasks(env.Data); err != nil || len(ws) != 1 {
			res = serialize.ResultMsg{WorkerID: workerID, Err: fmt.Sprintf("exex: rank %d task: %v", rank, err)}
		} else {
			res = executor.RunWire(p.reg, ws[0], workerID)
		}
		// An unencodable result value travels as this result's error.
		payload := serialize.AppendResults(nil, []serialize.ResultMsg{res})
		if err := p.comm.Send(rank, 0, tagResult, payload); err != nil {
			p.agent.Stop()
			return
		}
	}
}

// FailRank simulates a node/rank failure inside the pool, killing the whole
// MPI job (§4.3.2's fault model).
func (p *Pool) FailRank(rank int) { p.comm.Abort(rank) }

// Drain announces clean departure, so the interchange requeues in-flight
// work, then tears the pool down.
func (p *Pool) Drain() {
	p.agent.Drain()
	p.Stop()
}

// Stop tears the pool down.
func (p *Pool) Stop() {
	p.agent.Stop()
	p.comm.Abort(-1)
}

// Config assembles an EXEX deployment: an HTEX-protocol interchange plus
// MPI pools placed by the provider (one pool per node, the "several smaller
// MPI worker pools within a single scheduler job" mitigation).
type Config struct {
	Label       string
	Transport   simnet.Transport
	Addr        string
	Registry    *serialize.Registry
	Provider    provider.Provider
	InitBlocks  int
	Pool        PoolConfig
	Interchange htex.InterchangeConfig
}

// Executor is the EXEX client: the HTEX client/interchange machinery with
// MPI pools as node payloads. Embedding htex.Executor also promotes its
// native SubmitBatch, so the DFK's batched dispatch reaches EXEX pools as
// one TASKB frame into the shared interchange rather than the generic
// per-task fallback loop.
type Executor struct {
	*htex.Executor
	poolSeq atomic.Int64
}

// New creates an EXEX executor.
func New(cfg Config) *Executor {
	if cfg.Label == "" {
		cfg.Label = "exex"
	}
	if cfg.Transport == nil {
		cfg.Transport = simnet.NewNetwork(0)
	}
	cfg.Pool.normalize()
	e := &Executor{}
	inner := htex.New(htex.Config{
		Label:      cfg.Label,
		Transport:  cfg.Transport,
		Addr:       cfg.Addr,
		Registry:   cfg.Registry,
		Provider:   cfg.Provider,
		InitBlocks: cfg.InitBlocks,
		// The pools' agent configuration, so the htex client validates it and
		// cross-checks the heartbeat clock the pools actually beat at.
		Manager:     cfg.Pool.agent(),
		Interchange: cfg.Interchange,
		PayloadFactory: func(addr string, node provider.Node) (func(), error) {
			id := fmt.Sprintf("pool-%s-%d", node.BlockID, e.poolSeq.Add(1))
			pool, err := StartPool(cfg.Transport, addr, id, cfg.Registry, cfg.Pool)
			if err != nil {
				return nil, err
			}
			return pool.Drain, nil
		},
	})
	e.Executor = inner
	return e
}
