package proto

import (
	"bytes"
	"errors"
	"testing"
)

func TestV2FrameRoundTrip(t *testing.T) {
	queries := []Query{
		{Op: OpSet, Key: []byte("alpha"), Value: []byte("one")},
		{Op: OpGet, Key: []byte("beta")},
		{Op: OpDelete, Key: []byte("gamma")},
	}
	frame := EncodeFrameV2(nil, 0xDEADBEEFCAFE, queries)

	count, id, err := FrameHeader(frame)
	if err != nil || count != 3 || id != 0xDEADBEEFCAFE {
		t.Fatalf("header = %d, %x, %v", count, id, err)
	}

	got, gotID, err := ParseFrameID(frame, nil)
	if err != nil || gotID != 0xDEADBEEFCAFE {
		t.Fatalf("parse = id %x, %v", gotID, err)
	}
	if len(got) != 3 || string(got[0].Value) != "one" || string(got[2].Key) != "gamma" {
		t.Fatalf("queries = %+v", got)
	}
}

// v1Header is the header of a one-entry frame in the retired version-1
// layout: magic 'D','K','V','1' and a count, with no request ID and no
// checksum. v1Query and v1Response hand-build such frames.
var v1Header = []byte{'D', 'K', 'V', '1', 1, 0}

func v1Query(q Query) []byte {
	return AppendQuery(append([]byte(nil), v1Header...), q)
}

func v1Response(r Response) []byte {
	return AppendResponse(append([]byte(nil), v1Header...), r)
}

func TestV1FrameRejected(t *testing.T) {
	frame := v1Query(Query{Op: OpGet, Key: []byte("k")})
	if _, _, err := FrameHeader(frame); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("FrameHeader(v1) err = %v, want ErrBadMagic", err)
	}
	if _, _, err := ParseFrameID(frame, nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("ParseFrameID(v1) err = %v, want ErrBadMagic", err)
	}
	resp := v1Response(Response{Status: StatusOK, Value: []byte("v")})
	if _, _, _, err := ParseResponseFrameID(resp, nil); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("ParseResponseFrameID(v1) err = %v, want ErrBadMagic", err)
	}
}

func TestV2ChecksumDetectsCorruption(t *testing.T) {
	frame := EncodeFrameV2(nil, 42, []Query{{Op: OpSet, Key: []byte("key"), Value: []byte("value")}})
	for i := headerLenV2; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, err := FrameHeader(bad); !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrBadChecksum", i, err)
		}
		if _, _, err := ParseFrameID(bad, nil); !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("flip at %d: parse err = %v, want ErrBadChecksum", i, err)
		}
	}
}

func TestV2ResponseFrameRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Value: []byte("hello")},
		{Status: StatusNotFound},
		{Status: StatusBusy},
	}
	frame := EncodeResponseFrameV2(nil, 77, 129, resps)
	got, id, off, err := ParseResponseFrameID(frame, nil)
	if err != nil || id != 77 || off != 129 {
		t.Fatalf("parse = id %d, off %d, %v", id, off, err)
	}
	if len(got) != 3 || !bytes.Equal(got[0].Value, []byte("hello")) || got[2].Status != StatusBusy {
		t.Fatalf("resps = %+v", got)
	}
}

func TestV2ResponseChecksumDetectsCorruption(t *testing.T) {
	frame := EncodeResponseFrameV2(nil, 7, 0, []Response{{Status: StatusOK, Value: []byte("v")}})
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 1
	if _, _, _, err := ParseResponseFrameID(bad, nil); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestFrameHeaderRejectsLyingCount(t *testing.T) {
	// A header claiming more queries than the payload can possibly hold must
	// be rejected, so the count of a valid header is safe to size replies by.
	frame := EncodeFrameV2(nil, 1, []Query{{Op: OpGet, Key: []byte("k")}})
	frame[4] = 0xFF
	frame[5] = 0xFF
	if _, _, err := FrameHeader(frame); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestTruncatedV2Frames(t *testing.T) {
	frame := EncodeFrameV2(nil, 9, []Query{{Op: OpSet, Key: []byte("kk"), Value: []byte("vv")}})
	for n := 0; n < len(frame); n++ {
		if _, _, err := ParseFrameID(frame[:n], nil); err == nil {
			t.Fatalf("truncation to %d bytes parsed cleanly", n)
		}
	}
	resp := EncodeResponseFrameV2(nil, 9, 0, []Response{{Status: StatusOK, Value: []byte("vv")}})
	for n := 0; n < len(resp); n++ {
		if _, _, _, err := ParseResponseFrameID(resp[:n], nil); err == nil {
			t.Fatalf("response truncation to %d bytes parsed cleanly", n)
		}
	}
}
