package mq

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
)

func newNet() *simnet.Network { return simnet.NewNetwork(0) }

func TestFrameRoundTrip(t *testing.T) {
	in := Message{[]byte("a"), []byte(""), []byte("longer part here")}
	frame, err := appendFrame(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || string(out[0]) != "a" || len(out[1]) != 0 || string(out[2]) != "longer part here" {
		t.Fatalf("out = %v", out)
	}
}

func TestFrameEmptyMessage(t *testing.T) {
	frame, err := appendFrame(nil, Message{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("out = %v", out)
	}
}

func TestFrameRejectsOversizedClaims(t *testing.T) {
	// A frame header claiming 2^31 parts must be rejected, not allocated.
	buf := bytes.NewReader([]byte{0x80, 0, 0, 0})
	if _, err := readFrame(buf); err == nil {
		t.Fatal("oversized part count accepted")
	}
}

// writeCounter is a net.Conn that records each Write it receives.
type writeCounter struct {
	net.Conn
	writes [][]byte
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(b))
	return len(b), nil
}

func TestSendIsOneWritePerMessage(t *testing.T) {
	w := &writeCounter{}
	c := NewConn(w)
	msgs := []Message{{[]byte("RESULTS"), []byte("payload")}, {[]byte("HB")}, {}}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.writes) != len(msgs) {
		t.Fatalf("%d messages took %d writes", len(msgs), len(w.writes))
	}
	// The reused buffer must not leak one frame's bytes into the next.
	for i, m := range msgs {
		out, err := readFrame(bytes.NewReader(w.writes[i]))
		if err != nil || len(out) != len(m) {
			t.Fatalf("write %d decodes to %v, %v", i, out, err)
		}
		for j := range m {
			if !bytes.Equal(out[j], m[j]) {
				t.Fatalf("write %d part %d = %q, want %q", i, j, out[j], m[j])
			}
		}
	}
}

func TestDealerRequiresIdentity(t *testing.T) {
	n := newNet()
	r, err := NewRouter(n, "hub")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := DialDealer(n, "hub", ""); err == nil {
		t.Fatal("empty identity accepted")
	}
}

func TestRouterDealerExchange(t *testing.T) {
	n := newNet()
	r, err := NewRouter(n, "hub")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	d, err := DialDealer(n, "hub", "mgr-1")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.Send(Message{[]byte("task"), []byte("42")}); err != nil {
		t.Fatal(err)
	}
	del := <-r.Incoming()
	if del.From != "mgr-1" || string(del.Msg[0]) != "task" {
		t.Fatalf("delivery = %+v", del)
	}
	if err := r.SendTo("mgr-1", Message{[]byte("result")}); err != nil {
		t.Fatal(err)
	}
	m, err := d.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(m[0]) != "result" {
		t.Fatalf("m = %v", m)
	}
}

func TestRouterPeerEvents(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	d, err := DialDealer(n, "hub", "w1")
	if err != nil {
		t.Fatal(err)
	}
	ev := <-r.Events()
	if !ev.Joined || ev.ID != "w1" {
		t.Fatalf("join event = %+v", ev)
	}
	if !r.HasPeer("w1") {
		t.Fatal("peer not registered")
	}
	_ = d.Close()
	ev = <-r.Events()
	if ev.Joined || ev.ID != "w1" {
		t.Fatalf("leave event = %+v", ev)
	}
	waitFor(t, func() bool { return !r.HasPeer("w1") })
}

func TestRouterSendToUnknownPeer(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	if err := r.SendTo("ghost", Message{[]byte("x")}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestRouterManyDealersFanIn(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	const peers = 32
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := DialDealer(n, "hub", fmt.Sprintf("w%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			defer d.Close()
			if err := d.Send(Message{[]byte(fmt.Sprintf("hello-%d", i))}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	seen := map[string]bool{}
	for i := 0; i < peers; i++ {
		del := <-r.Incoming()
		seen[del.From] = true
	}
	wg.Wait()
	if len(seen) != peers {
		t.Fatalf("saw %d distinct peers, want %d", len(seen), peers)
	}
}

func TestRouterIdentityReuseLastWins(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	d1, err := DialDealer(n, "hub", "dup")
	if err != nil {
		t.Fatal(err)
	}
	<-r.Events() // join d1
	d2, err := DialDealer(n, "hub", "dup")
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	<-r.Events() // join d2 (replacing d1)
	// The message routed to "dup" must arrive at d2.
	waitFor(t, func() bool { return r.HasPeer("dup") })
	if err := r.SendTo("dup", Message{[]byte("ping")}); err != nil {
		t.Fatal(err)
	}
	m, err := d2.Recv()
	if err != nil {
		t.Fatalf("second dealer recv: %v", err)
	}
	if string(m[0]) != "ping" {
		t.Fatalf("m = %v", m)
	}
	_ = d1.Close()
}

func TestRouterDisconnectPeer(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	d, err := DialDealer(n, "hub", "bad")
	if err != nil {
		t.Fatal(err)
	}
	<-r.Events()
	r.Disconnect("bad")
	if _, err := d.Recv(); err == nil {
		t.Fatal("recv on disconnected dealer succeeded")
	}
	waitFor(t, func() bool { return !r.HasPeer("bad") })
}

func TestRouterClose(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	d, err := DialDealer(n, "hub", "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.SendTo("w", Message{[]byte("x")}); err != ErrClosed {
		t.Fatalf("SendTo after close = %v", err)
	}
	if _, err := d.Recv(); err == nil {
		t.Fatal("dealer recv after router close succeeded")
	}
	// Double close is safe.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSendsOnOneDealer(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	d, err := DialDealer(n, "hub", "w")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const msgs = 200
	var wg sync.WaitGroup
	for i := 0; i < msgs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = d.Send(Message{[]byte(fmt.Sprintf("%d", i))})
		}(i)
	}
	got := 0
	for got < msgs {
		<-r.Incoming()
		got++
	}
	wg.Wait() // frames must never interleave/corrupt
}

func TestOverTCPTransport(t *testing.T) {
	var tr simnet.TCP
	r, err := NewRouter(tr, "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp unavailable: %v", err)
	}
	defer r.Close()
	d, err := DialDealer(tr, r.Addr(), "tcp-worker")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Send(Message{[]byte("over-tcp")}); err != nil {
		t.Fatal(err)
	}
	del := <-r.Incoming()
	if del.From != "tcp-worker" || string(del.Msg[0]) != "over-tcp" {
		t.Fatalf("delivery = %+v", del)
	}
}

// Property: any multipart payload survives the frame codec byte-for-byte.
func TestQuickFrameRoundTrip(t *testing.T) {
	prop := func(parts [][]byte) bool {
		if len(parts) > 64 {
			parts = parts[:64]
		}
		frame, err := appendFrame(nil, Message(parts))
		if err != nil {
			return false
		}
		out, err := readFrame(bytes.NewReader(frame))
		if err != nil {
			return false
		}
		if len(out) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(out[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}
