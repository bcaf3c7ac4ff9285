package main

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// TestRelayCountsBothDirections echoes payloads through a relay and checks
// that it counts every byte in both directions and every connection.
func TestRelayCountsBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	rl, err := newRelay(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("0123456789"), 1000)
	const conns = 3
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", rl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(payload); err != nil {
			t.Fatal(err)
		}
		back := make([]byte, len(payload))
		if _, err := io.ReadFull(c, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatal("relay corrupted the payload")
		}
		c.Close()
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := rl.Bytes(), int64(2*conns*len(payload)); got != want {
		t.Errorf("relay counted %d bytes, want %d", got, want)
	}
	if got := rl.Conns(); got != conns {
		t.Errorf("relay counted %d connections, want %d", got, conns)
	}
	ln.Close()
	<-done
}

// TestRelayWaitsForTarget checks that a connection accepted before the
// target listens is forwarded once it does.
func TestRelayWaitsForTarget(t *testing.T) {
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	rl, err := newRelay(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	c, err := net.Dial("tcp", rl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("reserved port was taken: %v", err)
	}
	defer ln.Close()
	s, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := make([]byte, 5)
	if _, err := io.ReadFull(s, got); err != nil || string(got) != "hello" {
		t.Fatalf("target read %q, %v", got, err)
	}
}
