package main

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// relay forwards every TCP connection it accepts to a fixed target address
// and counts the bytes that cross it in both directions. A peer's
// PeerAddrs entry points at its relay, so the relay sees exactly the bytes
// the other peers put on the wire towards it.
type relay struct {
	ln     net.Listener
	target string
	// dialFor bounds how long a forwarded connection waits for the target
	// listener to come up (peers start their listeners concurrently).
	dialFor time.Duration

	bytes atomic.Int64
	conns atomic.Int64

	mu     sync.Mutex
	open   []net.Conn
	closed bool
	wg     sync.WaitGroup
}

// newRelay listens on a free loopback port and forwards to target.
func newRelay(target string, dialFor time.Duration) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, dialFor: dialFor}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr is the address peers dial.
func (r *relay) Addr() string { return r.ln.Addr().String() }

// Bytes is the total forwarded in both directions so far.
func (r *relay) Bytes() int64 { return r.bytes.Load() }

// Conns is the number of connections accepted so far.
func (r *relay) Conns() int64 { return r.conns.Load() }

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.conns.Add(1)
		if !r.track(c) {
			return
		}
		r.wg.Add(1)
		go r.forward(c)
	}
}

// track registers a connection for Close; it refuses (and closes) it once
// the relay is closing.
func (r *relay) track(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		c.Close()
		return false
	}
	r.open = append(r.open, c)
	return true
}

func (r *relay) forward(client net.Conn) {
	defer r.wg.Done()
	defer client.Close()
	deadline := time.Now().Add(r.dialFor)
	var server net.Conn
	for {
		var err error
		server, err = net.DialTimeout("tcp", r.target, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !r.track(server) {
		return
	}
	defer server.Close()
	done := make(chan struct{}, 2) // one send per copy direction
	pipe := func(dst, src net.Conn) {
		io.Copy(countingWriter{dst, &r.bytes}, src)
		// One side finished: unblock the other direction too.
		dst.Close()
		src.Close()
		done <- struct{}{}
	}
	go pipe(server, client)
	go pipe(client, server)
	<-done
	<-done
}

// Close stops accepting, closes every forwarded connection and waits until
// all relay goroutines have exited.
func (r *relay) Close() error {
	err := r.ln.Close()
	r.mu.Lock()
	r.closed = true
	for _, c := range r.open {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	return err
}

// countingWriter adds every byte written through it to n.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	k, err := c.w.Write(p)
	c.n.Add(int64(k))
	return k, err
}
