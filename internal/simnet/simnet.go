// Package simnet provides the network substrate the executors are written
// against. The paper's experiments ran over Infiniband (Midway, 0.07 ms RTT)
// and a Cray 3D torus (Blue Waters, 0.04 ms RTT); we cannot provision those,
// so executors take a Transport and run over either real TCP (stdlib net,
// loopback — used to validate correctness and measure genuine overheads) or
// an in-memory simulated network with configurable round-trip latency that
// stands in for the testbed interconnects.
package simnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// Transport abstracts connection establishment so an executor neither knows
// nor cares whether it is running over TCP or the in-memory fabric.
type Transport interface {
	// Listen binds a listener at addr.
	Listen(addr string) (net.Listener, error)
	// Dial connects to addr.
	Dial(addr string) (net.Conn, error)
}

// TCP is the real-network transport backed by the standard library.
type TCP struct{}

// Listen implements Transport. An addr of "127.0.0.1:0" picks a free port;
// callers read the chosen address back from the listener.
func (TCP) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Dial implements Transport.
func (TCP) Dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 10*time.Second)
}

// Network is an in-memory Transport. Each connection applies a one-way
// delay of RTT/2 to every write, modeling the interconnect.
type Network struct {
	// RTT is the simulated round-trip time between any two endpoints.
	RTT time.Duration

	mu        sync.Mutex
	listeners map[string]*listener
	seq       int64
}

// NewNetwork returns an in-memory network with the given RTT.
func NewNetwork(rtt time.Duration) *Network {
	return &Network{RTT: rtt, listeners: make(map[string]*listener)}
}

// Midway returns a network modeling the Midway cluster interconnect (0.07 ms
// average RTT, §5).
func Midway() *Network { return NewNetwork(70 * time.Microsecond) }

// BlueWaters returns a network modeling the Blue Waters 3D torus (0.04 ms
// average RTT, §5).
func BlueWaters() *Network { return NewNetwork(40 * time.Microsecond) }

// ErrAddrInUse is returned by Listen when the address is taken.
var ErrAddrInUse = errors.New("simnet: address already in use")

// ErrConnRefused is returned by Dial when nothing listens at the address.
var ErrConnRefused = errors.New("simnet: connection refused")

// Listen implements Transport.
func (n *Network) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" || addr[len(addr)-1] == ':' || addr == ":0" {
		// Auto-assign, mirroring ":0" TCP semantics.
		n.seq++
		addr = fmt.Sprintf("sim-%d", n.seq)
	}
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &listener{
		net:    n,
		addr:   addr,
		accept: make(chan net.Conn, 128),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (n *Network) Dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	delay := n.RTT / 2
	client, server := newPair(addr, delay)
	select {
	case l.accept <- server:
		// The listener may close concurrently, orphaning the queued conn;
		// fail the dial rather than leave a half-open connection whose
		// peer will never read.
		select {
		case <-l.done:
			_ = client.Close()
			_ = server.Close()
			return nil, fmt.Errorf("%w: %s (listener closed)", ErrConnRefused, addr)
		default:
			return client, nil
		}
	case <-l.done:
		return nil, fmt.Errorf("%w: %s (listener closed)", ErrConnRefused, addr)
	}
}

func (n *Network) remove(addr string) {
	n.mu.Lock()
	delete(n.listeners, addr)
	n.mu.Unlock()
}

type listener struct {
	net    *Network
	addr   string
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.remove(l.addr)
		// Close connections that were queued but never accepted, so their
		// dialers observe EOF instead of hanging.
		for {
			select {
			case c := <-l.accept:
				_ = c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return simAddr(l.addr) }

type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }

// packet is one Write's worth of bytes with its scheduled delivery time.
type packet struct {
	data []byte
	at   time.Time
}

// conn is one direction-pair endpoint of an in-memory connection.
type conn struct {
	local, remote simAddr
	delay         time.Duration

	in   chan packet // written by the peer
	peer *conn

	mu        sync.Mutex
	leftover  []byte
	closed    chan struct{}
	closeOnce sync.Once

	deadlineMu   sync.Mutex
	readDeadline time.Time
}

func newPair(addr string, delay time.Duration) (client, server *conn) {
	client = &conn{
		local: "client", remote: simAddr(addr),
		delay:  delay,
		in:     make(chan packet, 4096),
		closed: make(chan struct{}),
	}
	server = &conn{
		local: simAddr(addr), remote: "client",
		delay:  delay,
		in:     make(chan packet, 4096),
		closed: make(chan struct{}),
	}
	client.peer = server
	server.peer = client
	return client, server
}

// Write implements net.Conn. The bytes become readable at the peer after the
// one-way delay.
func (c *conn) Write(b []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, io.ErrClosedPipe
	case <-c.peer.closed:
		return 0, io.ErrClosedPipe
	default:
	}
	data := make([]byte, len(b))
	copy(data, b)
	p := packet{data: data, at: time.Now().Add(c.delay)}
	select {
	case c.peer.in <- p:
		return len(b), nil
	case <-c.peer.closed:
		return 0, io.ErrClosedPipe
	case <-c.closed:
		return 0, io.ErrClosedPipe
	}
}

// Read implements net.Conn, honoring read deadlines.
func (c *conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if len(c.leftover) > 0 {
		n := copy(b, c.leftover)
		c.leftover = c.leftover[n:]
		if len(c.leftover) == 0 {
			c.leftover = nil // do not pin a drained packet
		}
		c.mu.Unlock()
		return n, nil
	}
	c.mu.Unlock()

	var deadlineCh <-chan time.Time
	c.deadlineMu.Lock()
	dl := c.readDeadline
	c.deadlineMu.Unlock()
	var timer *time.Timer
	if !dl.IsZero() {
		d := time.Until(dl)
		if d <= 0 {
			return 0, timeoutError{}
		}
		timer = time.NewTimer(d)
		deadlineCh = timer.C
		defer timer.Stop()
	}

	deliver := func(p packet) (int, error) {
		waitUntil(p.at) // bytes are not visible before p.at
		n := copy(b, p.data)
		if n < len(p.data) {
			// p.data is private to this connection (Write copied it).
			c.mu.Lock()
			c.leftover = p.data[n:]
			c.mu.Unlock()
		}
		return n, nil
	}
	select {
	case p := <-c.in:
		return deliver(p)
	case <-c.closed:
		return 0, io.EOF
	case <-c.peer.closed:
		// The peer hung up: drain anything already in flight, then EOF.
		select {
		case p := <-c.in:
			return deliver(p)
		default:
			return 0, io.EOF
		}
	case <-deadlineCh:
		return 0, timeoutError{}
	}
}

// waitUntil returns once at has passed. It sleeps through all but the last
// millisecond, a timer's worst-case lateness, and yields through the rest: a
// timer alone would stretch a 35 µs Midway leg to a millisecond.
func waitUntil(at time.Time) {
	if wait := time.Until(at) - time.Millisecond; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(at) {
		runtime.Gosched()
	}
}

// Close implements net.Conn. Pending reads on both ends unblock.
func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn (read side only; writes never block on the
// wire model beyond channel capacity).
func (c *conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.deadlineMu.Lock()
	c.readDeadline = t
	c.deadlineMu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn as a no-op.
func (c *conn) SetWriteDeadline(time.Time) error { return nil }

type timeoutError struct{}

func (timeoutError) Error() string   { return "simnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
