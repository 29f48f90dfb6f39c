package proto

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"testing/quick"
)

// reseal recomputes a query frame's payload checksum after a test edits the
// payload, so the edit reaches the query parser instead of failing the CRC.
func reseal(frame []byte) {
	binary.LittleEndian.PutUint32(frame[14:18], crc32.ChecksumIEEE(frame[headerLenV2:]))
}

func TestOpString(t *testing.T) {
	if OpGet.String() != "GET" || OpSet.String() != "SET" || OpDelete.String() != "DELETE" {
		t.Fatal("op strings wrong")
	}
	if Op(99).String() != "Op(99)" {
		t.Fatal("unknown op string wrong")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	in := []Query{
		{Op: OpGet, Key: []byte("user:1000")},
		{Op: OpSet, Key: []byte("user:1001"), Value: []byte("profile-data")},
		{Op: OpDelete, Key: []byte("user:1002")},
		{Op: OpSet, Key: []byte("empty-value-key")},
	}
	frame := EncodeFrameV2(nil, 5, in)
	out, id, err := ParseFrameID(frame, nil)
	if err != nil || id != 5 {
		t.Fatalf("parse: id %d, %v", id, err)
	}
	if len(out) != len(in) {
		t.Fatalf("parsed %d queries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Op != in[i].Op || !bytes.Equal(out[i].Key, in[i].Key) || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Fatalf("query %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
}

func TestEmptyFrame(t *testing.T) {
	frame := EncodeFrameV2(nil, 1, nil)
	out, _, err := ParseFrameID(frame, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty frame: %v %v", out, err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, _, err := ParseFrameID([]byte{1, 2}, nil); err != ErrTruncated {
		t.Fatalf("short frame err = %v", err)
	}
	if _, _, err := ParseFrameID([]byte("XXXX\x01\x00"), nil); err != ErrBadMagic {
		t.Fatalf("bad magic err = %v", err)
	}
	if _, _, err := ParseFrameID([]byte("DKV2\x00\x00"), nil); err != ErrTruncated {
		t.Fatalf("short header err = %v", err)
	}
	// Valid header claiming one query but no body.
	frame := EncodeFrameV2(nil, 1, nil)
	frame[4] = 1
	if _, _, err := ParseFrameID(frame, nil); err != ErrTruncated {
		t.Fatalf("truncated query err = %v", err)
	}
	// Bad op byte.
	frame = EncodeFrameV2(nil, 1, []Query{{Op: OpGet, Key: []byte("k")}})
	frame[headerLenV2] = 77
	reseal(frame)
	if _, _, err := ParseFrameID(frame, nil); err != ErrBadOp {
		t.Fatalf("bad op err = %v", err)
	}
	// Key length pointing past the end.
	frame = EncodeFrameV2(nil, 1, []Query{{Op: OpGet, Key: []byte("k")}})
	frame[headerLenV2+1] = 0xFF
	reseal(frame)
	if _, _, err := ParseFrameID(frame, nil); err != ErrTruncated {
		t.Fatalf("overlong key err = %v", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := []Response{
		{Status: StatusOK, Value: []byte("value-bytes")},
		{Status: StatusNotFound},
		{Status: StatusError},
	}
	frame := EncodeResponseFrameV2(nil, 9, 4, in)
	out, id, off, err := ParseResponseFrameID(frame, nil)
	if err != nil || id != 9 || off != 4 {
		t.Fatalf("parse: id %d, off %d, %v", id, off, err)
	}
	if len(out) != 3 {
		t.Fatalf("parsed %d responses", len(out))
	}
	for i := range in {
		if out[i].Status != in[i].Status || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Fatalf("response %d mismatch", i)
		}
	}
}

func TestResponseParseErrors(t *testing.T) {
	if _, _, _, err := ParseResponseFrameID([]byte{1}, nil); err != ErrTruncated {
		t.Fatal("short response frame")
	}
	if _, _, _, err := ParseResponseFrameID([]byte("YYYY\x00\x00"), nil); err != ErrBadMagic {
		t.Fatal("bad response magic")
	}
	frame := EncodeResponseFrameV2(nil, 1, 0, nil)
	frame[4] = 1
	if _, _, _, err := ParseResponseFrameID(frame, nil); err != ErrTruncated {
		t.Fatal("truncated response")
	}
}

func TestEncodedQueryLen(t *testing.T) {
	q := Query{Op: OpSet, Key: []byte("abc"), Value: []byte("defgh")}
	if got := EncodedQueryLen(q); got != 7+3+5 {
		t.Fatalf("len = %d", got)
	}
	frame := EncodeFrameV2(nil, 1, []Query{q})
	if len(frame) != headerLenV2+EncodedQueryLen(q) {
		t.Fatal("frame length disagrees with EncodedQueryLen")
	}
}

func TestTooManyQueriesPanics(t *testing.T) {
	qs := make([]Query, 0x10000)
	for i := range qs {
		qs[i] = Query{Op: OpGet, Key: []byte("k")}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodeFrameV2(nil, 1, qs)
}

func TestTooManyResponsesPanics(t *testing.T) {
	rs := make([]Response, 0x10000)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EncodeResponseFrameV2(nil, 1, 0, rs)
}

func TestRoundTripProperty(t *testing.T) {
	f := func(keys [][]byte, vals [][]byte, ops []byte) bool {
		var in []Query
		for i, k := range keys {
			if len(k) == 0 {
				k = []byte("x")
			}
			if len(k) > 1000 {
				k = k[:1000]
			}
			op := OpGet
			if len(ops) > 0 {
				op = Op(ops[i%len(ops)]%3 + 1)
			}
			q := Query{Op: op, Key: k}
			if q.Op == OpSet && i < len(vals) {
				v := vals[i]
				if len(v) > 1000 {
					v = v[:1000]
				}
				q.Value = v
			}
			in = append(in, q)
		}
		if len(in) > 1000 {
			in = in[:1000]
		}
		frame := EncodeFrameV2(nil, uint64(len(in)), in)
		out, id, err := ParseFrameID(frame, nil)
		if err != nil || id != uint64(len(in)) || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i].Op != in[i].Op || !bytes.Equal(out[i].Key, in[i].Key) {
				return false
			}
			// Empty and nil values are equivalent on the wire.
			if len(out[i].Value) != len(in[i].Value) {
				return false
			}
			if len(in[i].Value) > 0 && !bytes.Equal(out[i].Value, in[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
