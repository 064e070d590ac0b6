package htex

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// ManagerConfig tunes one pilot agent.
type ManagerConfig struct {
	// Workers is the number of worker goroutines (one per core in the
	// paper's deployments).
	Workers int
	// Prefetch is extra task slots advertised beyond Workers, letting the
	// manager buffer tasks and hide interchange round trips (§4.3.1:
	// "configurable batching and prefetching of tasks to minimize
	// communication overheads").
	Prefetch int
	// ResultFlush is the most results one RESULTS frame carries. An idle
	// manager sends each result as soon as it is ready; a busy one batches
	// whatever piled up while its previous frame was being sent.
	ResultFlush int
	// HeartbeatPeriod is how often the manager pings the interchange; if
	// the interchange stays silent for 5 periods the manager exits
	// ("managers, upon losing contact with the interchange, exit
	// immediately to avoid resource wastage").
	HeartbeatPeriod time.Duration
}

// Validate rejects impossible manager configurations (negative knobs). Zero
// values are fine — normalize fills them.
func (c ManagerConfig) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("htex: manager Workers %d is negative", c.Workers)
	}
	if c.Prefetch < 0 {
		return fmt.Errorf("htex: manager Prefetch %d is negative", c.Prefetch)
	}
	if c.ResultFlush < 0 {
		return fmt.Errorf("htex: manager ResultFlush %d is negative", c.ResultFlush)
	}
	if c.HeartbeatPeriod < 0 {
		return fmt.Errorf("htex: manager HeartbeatPeriod %v is negative", c.HeartbeatPeriod)
	}
	return nil
}

func (c *ManagerConfig) normalize() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Prefetch < 0 {
		c.Prefetch = 0
	}
	if c.ResultFlush <= 0 {
		c.ResultFlush = 16
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 200 * time.Millisecond
	}
}

// Runner executes one task on behalf of agent worker `worker` (0-based) and
// returns its result. StartManager's runner decodes the arguments and runs
// the kernel in-process; an EXEX pool's runner hands the envelope to the MPI
// rank that worker owns. An error means the execution substrate itself is
// gone (an aborted MPI communicator): the agent stops, and the interchange
// reports the tasks it held lost.
type Runner func(worker int, w serialize.WireTask) (serialize.ResultMsg, error)

// Manager is the per-node pilot agent: it registers capacity with the
// interchange, feeds a pool of worker goroutines that execute through its
// Runner, sends result batches back, and polices the interchange's
// heartbeat. Tasks arrive as wire envelopes; the argument payload — encoded
// once at submit time on the client — is decoded only by whatever finally
// executes the task.
type Manager struct {
	id     string
	cfg    ManagerConfig
	run    Runner
	dealer *mq.Dealer
	// link carries this manager's RESULTS frames and NACKs.
	link link

	tasks   chan serialize.WireTask
	results chan serialize.ResultMsg

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu       sync.Mutex
	lastSeen time.Time
	executed int64
	// canceled holds wire ids the interchange struck while they sat in this
	// manager's task buffer; workers drop them on dequeue instead of running
	// them. Entries are removed when encountered. An id canceled after its
	// task already ran leaves a stale entry — bounded by cancellations per
	// manager lifetime, and harmless because wire ids are never reused.
	canceled map[int64]struct{}
	// digests is the content-digest set this manager advertises in its
	// heartbeats: the Payload.ArgsHash of every task it has successfully
	// executed recently (its warm inputs/results), bounded FIFO by
	// maxAdvertisedDigests. digestOrder tracks insertion order for eviction.
	digests     map[string]struct{}
	digestOrder []string
}

// maxAdvertisedDigests bounds one manager's heartbeat digest-set summary.
// At 16 hex chars + separator per digest the advert stays under ~9 KiB.
const maxAdvertisedDigests = 512

// StartManager connects a manager to the interchange at addr whose workers
// execute tasks from reg in-process.
func StartManager(tr simnet.Transport, addr, id string, reg *serialize.Registry, cfg ManagerConfig) (*Manager, error) {
	// Worker ids are built once, not per task; normalize runs one worker
	// when Workers <= 0.
	names := make([]string, max(cfg.Workers, 1))
	for i := range names {
		names[i] = fmt.Sprintf("%s/w%d", id, i)
	}
	return StartAgent(tr, addr, id, cfg, func(worker int, w serialize.WireTask) (serialize.ResultMsg, error) {
		return executor.RunWire(reg, w, names[worker]), nil
	})
}

// StartAgent connects a manager to the interchange at addr whose cfg.Workers
// workers execute tasks through run.
func StartAgent(tr simnet.Transport, addr, id string, cfg ManagerConfig, run Runner) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	dealer, err := mq.DialDealer(tr, addr, id)
	if err != nil {
		return nil, fmt.Errorf("htex: manager %s: %w", id, err)
	}
	m := &Manager{
		id:       id,
		cfg:      cfg,
		run:      run,
		dealer:   dealer,
		link:     link{point: chaos.PointMgrResults, label: id, dealer: dealer},
		tasks:    make(chan serialize.WireTask, cfg.Workers+cfg.Prefetch),
		results:  make(chan serialize.ResultMsg, cfg.Workers+cfg.Prefetch),
		done:     make(chan struct{}),
		lastSeen: time.Now(),
		canceled: make(map[int64]struct{}),
		digests:  make(map[string]struct{}),
	}
	capacity := cfg.Workers + cfg.Prefetch
	if err := dealer.Send(mq.Message{[]byte(frameReg), []byte(strconv.Itoa(capacity))}); err != nil {
		_ = dealer.Close()
		return nil, fmt.Errorf("htex: manager %s register: %w", id, err)
	}

	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker(i)
	}
	m.wg.Add(3)
	go m.recvLoop()
	go m.resultLoop()
	go m.heartbeatLoop()
	return m, nil
}

// ID returns the manager's identity.
func (m *Manager) ID() string { return m.id }

// Executed returns the number of tasks this manager has run.
func (m *Manager) Executed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.executed
}

// Done is closed once the manager stops, whatever stopped it.
func (m *Manager) Done() <-chan struct{} { return m.done }

func (m *Manager) recvLoop() {
	defer m.wg.Done()
	for {
		msg, err := m.dealer.Recv()
		if err != nil {
			m.Stop() // interchange gone: exit immediately
			return
		}
		if len(msg) == 0 {
			continue
		}
		switch string(msg[0]) {
		case frameTasks:
			if len(msg) < 2 {
				continue
			}
			batch, err := serialize.ParseTasks(msg[1])
			if err != nil {
				// The interchange requeues what this manager holds (codec.go).
				m.link.nack()
				continue
			}
			for _, t := range batch {
				select {
				case m.tasks <- t:
				case <-m.done:
					return
				}
			}
		case frameHB:
			m.mu.Lock()
			m.lastSeen = time.Now()
			m.mu.Unlock()
		case frameCancel:
			if len(msg) < 2 {
				continue
			}
			ids, err := serialize.ParseIDs(msg[1])
			if err != nil {
				continue
			}
			m.mu.Lock()
			for _, id := range ids {
				m.canceled[id] = struct{}{}
			}
			m.mu.Unlock()
		}
	}
}

// dropCanceled reports (and consumes) a pending cancellation for id.
func (m *Manager) dropCanceled(id int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.canceled[id]; ok {
		delete(m.canceled, id)
		return true
	}
	return false
}

func (m *Manager) worker(i int) {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case w := <-m.tasks:
			// Chaos: abrupt manager death mid-batch — no BYE, no result. The
			// interchange's disconnect/heartbeat policing reports the held
			// tasks LOST, and the DFK retry path re-executes them (§3.7). The
			// detail carries the dequeued app name so poison-task scenarios
			// can Match a specific task killing every manager it lands on.
			if chaos.Kill(chaos.PointMgrKill, m.id+" app="+w.App) {
				m.Stop()
				return
			}
			if m.dropCanceled(w.ID) {
				continue // struck by the interchange; never starts
			}
			res, err := m.run(i, w)
			if err != nil {
				m.Stop()
				return
			}
			m.mu.Lock()
			m.executed++
			if res.Err == "" {
				// Successful execution warms this manager for the task's
				// exact input bytes: note the content digest (derived from
				// the wire payload — the same FNV value the client's
				// Payload.ArgsHash reports) for the heartbeat advert.
				m.noteDigestLocked(serialize.DigestBytes(w.P))
			}
			m.mu.Unlock()
			select {
			case m.results <- res:
			case <-m.done:
				return
			}
		}
	}
}

// resultLoop sends results in batches (§4.3.1: "results are aggregated from
// workers and sent to the interchange in batches"): each frame carries the
// result that woke the loop plus every result already waiting, up to
// ResultFlush. No timer holds a result back, so an idle manager answers at
// once. A result whose value cannot be encoded travels as that result's
// error (serialize.AppendResults), so its task settles and the rest of the
// batch is unaffected. There is nothing to flush on exit: Stop closes the
// dealer.
func (m *Manager) resultLoop() {
	defer m.wg.Done()
	// sendResults encodes the batch synchronously, so the slice is reused.
	batch := make([]serialize.ResultMsg, 0, m.cfg.ResultFlush)
	for {
		select {
		case <-m.done:
			return
		case r := <-m.results:
			batch = append(batch[:0], r)
		}
	fill:
		for len(batch) < m.cfg.ResultFlush {
			select {
			case r := <-m.results:
				batch = append(batch, r)
			default:
				break fill
			}
		}
		_ = m.link.sendResults(batch)
	}
}

// noteDigestLocked records a warm content digest for the heartbeat advert,
// evicting the oldest entry past the bound. Caller holds m.mu.
func (m *Manager) noteDigestLocked(d string) {
	if _, ok := m.digests[d]; ok {
		return
	}
	m.digests[d] = struct{}{}
	m.digestOrder = append(m.digestOrder, d)
	for len(m.digestOrder) > maxAdvertisedDigests {
		delete(m.digests, m.digestOrder[0])
		m.digestOrder = m.digestOrder[1:]
	}
}

// digestAdvert renders the compact digest-set summary attached to
// heartbeats: the bounded set of warm digests, comma-joined. Empty before
// the first successful execution (and the HB then carries no extra part).
func (m *Manager) digestAdvert() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.digestOrder) == 0 {
		return nil
	}
	return []byte(strings.Join(m.digestOrder, ","))
}

func (m *Manager) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
			// The heartbeat doubles as the locality advertisement: an extra
			// frame part carries the digest-set summary so the interchange
			// can aggregate who holds what without any new message type.
			// Interchanges ignore parts they don't expect, so an empty set
			// sends the classic single-part HB.
			hb := mq.Message{[]byte(frameHB)}
			if adv := m.digestAdvert(); adv != nil {
				hb = append(hb, adv)
			}
			if err := m.dealer.Send(hb); err != nil {
				m.Stop()
				return
			}
			m.mu.Lock()
			silent := time.Since(m.lastSeen)
			m.mu.Unlock()
			if silent > 5*m.cfg.HeartbeatPeriod {
				m.Stop()
				return
			}
		}
	}
}

// Drain announces clean departure so in-flight tasks are requeued rather
// than reported lost, then stops. It waits (bounded) for the interchange to
// acknowledge by hanging up, so the BYE is processed before the connection
// drops — otherwise the disconnect would race the BYE and the interchange
// would report the tasks lost instead of requeueing them.
func (m *Manager) Drain() {
	if err := m.dealer.Send(mq.Message{[]byte(frameBye)}); err == nil {
		select {
		case <-m.done: // recvLoop saw the interchange hang up
		case <-time.After(2 * time.Second):
		}
	}
	m.Stop()
}

// Stop terminates the manager's goroutines and connection.
func (m *Manager) Stop() {
	m.closeOnce.Do(func() {
		close(m.done)
		_ = m.dealer.Close()
	})
}

// Wait blocks until all manager goroutines exit (tests).
func (m *Manager) Wait() { m.wg.Wait() }
