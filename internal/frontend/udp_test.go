package frontend

import (
	"testing"
	"time"

	"repro/internal/proto"
)

// TestUDPSingleQueueFallback (named for the single-socket fallback of the
// multi-queue frontend it was written for) pins that Addr is nil until
// Listen binds the socket, and the bound address after.
func TestUDPSingleQueueFallback(t *testing.T) {
	u := NewUDP(UDPOptions{})
	if u.Addr() != nil {
		t.Fatal("Addr non-nil before Listen")
	}
	if err := u.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer u.Shutdown()
	if u.Addr() == nil {
		t.Fatal("Addr nil after Listen")
	}
}

// TestUDPRunFailsOnClosedSocket pins that a socket error Run cannot ride
// out — here the socket closed under it while the core is not draining —
// ends Run with that error rather than a clean nil or a spin.
func TestUDPRunFailsOnClosedSocket(t *testing.T) {
	u := NewUDP(UDPOptions{})
	if err := u.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- u.Run(&heldCore{}) }()
	u.Shutdown()
	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("Run returned nil after its socket closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after its socket closed")
	}
}

// TestResponseFramesExactCapacity pins the reply buffers' sizing: every frame
// AppendResponseFrames hands the reply cache is allocated once at its final
// length, across a multi-datagram split, and the frames still decode to the
// responses that went in.
func TestResponseFramesExactCapacity(t *testing.T) {
	resps := make([]proto.Response, 40)
	for i := range resps {
		resps[i] = proto.Response{Status: proto.StatusOK, Value: make([]byte, 100*i)} // 78 KB: two datagrams
	}
	frames := AppendResponseFrames(nil, 7, resps)
	if len(frames) < 2 {
		t.Fatalf("%d frames, want a split", len(frames))
	}
	var back []proto.Response
	for _, f := range frames {
		if cap(f) != len(f) {
			t.Errorf("frame of %d bytes has capacity %d", len(f), cap(f))
		}
		var err error
		if back, _, _, err = proto.ParseResponseFrameID(f, back); err != nil {
			t.Fatal(err)
		}
	}
	if len(back) != len(resps) {
		t.Fatalf("%d responses came back, want %d", len(back), len(resps))
	}
}
