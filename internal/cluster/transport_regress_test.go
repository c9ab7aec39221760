package cluster_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
)

// smallDir builds a minimal valid image directory for transfer tests.
func smallDir(tag byte) *criu.ImageDir {
	dir := criu.NewImageDir()
	dir.Put("inventory.img", []byte{tag, 2, 3, 4})
	return dir
}

// TestTakeWaitConcurrentWaiters is the lost-wakeup regression (satellite:
// TakeWait): two parked waiters, two near-simultaneous arrivals. The
// buffered notify channel collapses both arrival signals into one token;
// before the re-signal fix in Take, the second waiter slept its full
// timeout next to a non-empty queue.
func TestTakeWaitConcurrentWaiters(t *testing.T) {
	recvr, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recvr.Close()

	for iter := 0; iter < 10; iter++ {
		waitErrs := make(chan error, 2)
		for w := 0; w < 2; w++ {
			go func() {
				_, err := recvr.TakeWait(3 * time.Second)
				waitErrs <- err
			}()
		}
		// Let both waiters park in the select before anything arrives.
		time.Sleep(10 * time.Millisecond)
		var wg sync.WaitGroup
		sendErrs := make(chan error, 2)
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				_, _, err := cluster.SendImagesOpts(recvr.Addr(), smallDir(byte(s)), cluster.SendOpts{})
				sendErrs <- err
			}(s)
		}
		wg.Wait()
		close(sendErrs)
		for err := range sendErrs {
			if err != nil {
				t.Fatalf("iter %d: send: %v", iter, err)
			}
		}
		for w := 0; w < 2; w++ {
			if err := <-waitErrs; err != nil {
				t.Fatalf("iter %d: a waiter starved beside a non-empty queue: %v", iter, err)
			}
		}
	}
}

// TestSendImagesStalledReceiverDeadline is the hung-sender regression
// (satellite: SendImages deadline): against a peer that accepts but never
// reads, the send must fail once its write deadline passes instead of
// blocking forever on a full socket buffer.
func TestSendImagesStalledReceiverDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Test-listener teardown only.
		_ = ln.Close()
	}()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn // held open, never read
	}()
	defer func() {
		select {
		case conn := <-accepted:
			// Stall-peer teardown only.
			_ = conn.Close()
		default:
		}
	}()

	// Big enough to overrun every socket buffer between sender and the
	// never-reading peer.
	dir := criu.NewImageDir()
	dir.Put("pages.img", bytes.Repeat([]byte{0x42}, 64<<20))

	done := make(chan error, 1)
	go func() {
		_, _, err := cluster.SendImagesOpts(ln.Addr().String(), dir, cluster.SendOpts{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("send to a never-reading peer reported success")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send to a never-reading peer hung past its deadline (pre-fix behavior)")
	}
}

// TestSendImagesCodecOverTCP runs the compressed stream through the real
// sender/receiver pair: the decoded directory is byte-identical, and
// compression shrinks the wire volume.
func TestSendImagesCodecOverTCP(t *testing.T) {
	recvr, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recvr.Close()

	dir := criu.NewImageDir()
	dir.Put("core-1.img", []byte{1, 2, 3})
	dir.Put("pages.img", bytes.Repeat([]byte{0}, 1<<20))
	blob := dir.Marshal()

	raw, wire, err := cluster.SendImagesOpts(recvr.Addr(), dir, cluster.SendOpts{
		Codec: criu.CodecFlate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if raw != uint64(len(blob)) {
		t.Errorf("raw = %d, want marshaled size %d", raw, len(blob))
	}
	if wire >= raw {
		t.Errorf("flate transfer did not shrink: raw %d, wire %d", raw, wire)
	}
	got, err := recvr.TakeWait(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), blob) {
		t.Error("compressed transfer decoded to a different directory")
	}
}

// TestImageReceiverMaxInflight (satellite: inbound bound): with all eight
// inflight slots occupied by stalled transfers, a ninth connection is shed
// at accept and counted; once the slots free, transfers work again.
func TestImageReceiverMaxInflight(t *testing.T) {
	const bound = 8 // the receiver's inflight bound
	recvr, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recvr.Close()

	// Occupy every slot: claim a body, deliver nothing.
	hdr := append([]byte("DIB3"), 0, 0, 0, 0)
	hdr = binary.BigEndian.AppendUint64(hdr, 1<<20)
	stalls := make([]net.Conn, bound)
	for i := range stalls {
		if stalls[i], err = net.Dial("tcp", recvr.Addr()); err != nil {
			t.Fatal(err)
		}
		if _, err := stalls[i].Write(hdr); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond) // let the slots be acquired

	// A ninth transfer while every slot is busy: shed at accept. The send
	// itself may report success (its bytes fit the socket buffer before
	// the reset lands); the receiver-side reject count is the contract.
	_, _, _ = cluster.SendImagesOpts(recvr.Addr(), smallDir(1), cluster.SendOpts{})
	waitForErrors(t, recvr, 1)
	if d := recvr.Take(); d != nil {
		t.Fatalf("over-bound transfer produced a directory: %v", d.Names())
	}

	// Free the slots (each truncated body counts as an error)...
	for _, c := range stalls {
		// Stalled conn teardown is the point of this line.
		_ = c.Close()
	}
	waitForErrors(t, recvr, 1+bound)

	// ...and the receiver serves normal transfers again.
	if _, _, err := cluster.SendImagesOpts(recvr.Addr(), smallDir(2), cluster.SendOpts{}); err != nil {
		t.Fatal(err)
	}
	got, err := recvr.TakeWait(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := got.Get("inventory.img"); len(raw) != 4 || raw[0] != 2 {
		t.Errorf("post-recovery transfer decoded wrong: %v", raw)
	}
	if got := recvr.Errors(); got != 1+bound {
		t.Errorf("Errors = %d, want %d (one shed connection, %d truncated bodies)", got, 1+bound, bound)
	}
}

// TestImageReceiverMalformedV3Streams feeds the receiver the malformed
// corpus (TestReadImageStreamMalformed pins each case's named error);
// each is counted and none may produce a directory or a large
// allocation, and a valid compressed transfer still works.
func TestImageReceiverMalformedV3Streams(t *testing.T) {
	recvr, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recvr.Close()

	want := uint64(0)
	for _, payload := range cluster.MalformedStreams(t, smallDir(3).Marshal()) {
		conn, err := net.Dial("tcp", recvr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		// One-shot malformed payload; peer drops it regardless.
		_ = conn.Close()
		want++
		waitForErrors(t, recvr, want)
	}

	if d := recvr.Take(); d != nil {
		t.Fatalf("malformed v3 stream produced a directory: %v", d.Names())
	}
	// Still healthy for a real v3 transfer.
	if _, _, err := cluster.SendImagesOpts(recvr.Addr(), smallDir(7), cluster.SendOpts{
		Codec: criu.CodecFlate,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := recvr.TakeWait(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := recvr.Errors(); got != want {
		t.Errorf("Errors = %d, want %d", got, want)
	}
}
