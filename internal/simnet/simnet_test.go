package simnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestListenDialRoundTrip(t *testing.T) {
	n := NewNetwork(0)
	l, err := n.Listen("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var got []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		nr, err := c.Read(buf)
		if err != nil {
			t.Error(err)
			return
		}
		got = buf[:nr]
		if _, err := c.Write([]byte("pong")); err != nil {
			t.Error(err)
		}
	}()

	c, err := n.Dial("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	nr, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !bytes.Equal(got, []byte("ping")) || !bytes.Equal(buf[:nr], []byte("pong")) {
		t.Fatalf("round trip: %q / %q", got, buf[:nr])
	}
}

func TestDialUnknownRefused(t *testing.T) {
	n := NewNetwork(0)
	if _, err := n.Dial("nowhere"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestListenDuplicateAddr(t *testing.T) {
	n := NewNetwork(0)
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("err = %v", err)
	}
}

func TestAutoAssignAddr(t *testing.T) {
	n := NewNetwork(0)
	l1, err := n.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := n.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr().String() == l2.Addr().String() {
		t.Fatal("auto-assigned addresses collide")
	}
	if _, err := n.Dial(l1.Addr().String()); err != nil {
		t.Fatal(err)
	}
}

func TestCloseListenerRefusesDials(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	_ = l.Close()
	if _, err := n.Dial("x"); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
	// Address is reusable after close.
	if _, err := n.Listen("x"); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestAcceptAfterCloseReturnsErrClosed(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	_ = l.Close()
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestLatencyApplied(t *testing.T) {
	rtt := 20 * time.Millisecond
	n := NewNetwork(rtt)
	l, _ := n.Listen("slow")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		_, _ = c.Read(buf)
		_, _ = c.Write(buf)
	}()
	c, err := n.Dial("slow")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _ = c.Write([]byte("x"))
	buf := make([]byte, 8)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < rtt {
		t.Fatalf("round trip %v < RTT %v", elapsed, rtt)
	}
}

func TestReadAfterCloseEOF(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	go func() {
		c, err := l.Accept()
		if err == nil {
			_ = c.Close()
		}
	}()
	c, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	deadline := time.Now().Add(2 * time.Second)
	_ = c.SetReadDeadline(deadline)
	if _, err := c.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestWriteAfterPeerClose(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	_ = srv.Close()
	// Eventually writes fail; the close is visible immediately here.
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	go func() { _, _ = l.Accept() }()
	c, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	buf := make([]byte, 1)
	_, err = c.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestPartialReadsLeftover(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	go func() {
		c, err := l.Accept()
		if err == nil {
			_, _ = c.Write([]byte("abcdef"))
			_, _ = c.Write([]byte("gh"))
		}
	}()
	c, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	// A 4-byte buffer splits the first packet; the rest is served before
	// the second packet, and never merged with it.
	small := make([]byte, 4)
	var reads []string
	for _, want := range []string{"abcd", "ef", "gh"} {
		nr, err := c.Read(small)
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, string(small[:nr]))
		if reads[len(reads)-1] != want {
			t.Fatalf("reads %q, want %q last", reads, want)
		}
	}
	if left := c.(*conn).leftover; left != nil {
		t.Fatalf("drained leftover still pins %d bytes (cap %d)", len(left), cap(left))
	}
}

// TestMidwayRoundTripNearModel pins the delivery model's accuracy: a
// ping-pong on Midway() costs about its modelled 70 µs RTT, not the
// millisecond a timer rounds each leg up to. No round trip beats the RTT.
func TestMidwayRoundTripNearModel(t *testing.T) {
	n := Midway()
	l, _ := n.Listen("midway")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 1)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := n.Dial("midway")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rtts := make([]time.Duration, 200)
	buf := make([]byte, 1)
	for i := range rtts {
		start := time.Now()
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
		rtts[i] = time.Since(start)
	}
	slices.Sort(rtts)
	if rtts[0] < n.RTT {
		t.Fatalf("fastest round trip %v beats the RTT %v", rtts[0], n.RTT)
	}
	if median := rtts[len(rtts)/2]; median >= 10*n.RTT {
		t.Fatalf("median round trip %v ≥ 10× the RTT %v", median, n.RTT)
	}
}

func TestAddrs(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("hub")
	if l.Addr().Network() != "sim" || l.Addr().String() != "hub" {
		t.Fatalf("addr = %v/%v", l.Addr().Network(), l.Addr())
	}
	go func() { _, _ = l.Accept() }()
	c, _ := n.Dial("hub")
	if c.RemoteAddr().String() != "hub" {
		t.Fatalf("remote = %v", c.RemoteAddr())
	}
}

func TestTestbedPresets(t *testing.T) {
	if Midway().RTT != 70*time.Microsecond {
		t.Fatal("midway rtt")
	}
	if BlueWaters().RTT != 40*time.Microsecond {
		t.Fatal("blue waters rtt")
	}
}

func TestTCPTransportLoopback(t *testing.T) {
	var tr TCP
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // echo
	}()
	c, err := tr.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
}

func TestManyConcurrentConns(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("hub")
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 16)
				nr, err := c.Read(buf)
				if err != nil {
					return
				}
				_, _ = c.Write(buf[:nr])
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial("hub")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := []byte{byte(i)}
			_, _ = c.Write(msg)
			buf := make([]byte, 1)
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Error(err)
				return
			}
			if buf[0] != byte(i) {
				t.Errorf("conn %d echo mismatch", i)
			}
		}(i)
	}
	wg.Wait()
}
