package proto

import (
	"bytes"
	"testing"
)

// queryFrameSeeds returns valid frames, truncations and corruptions, giving
// the fuzzer structured starting points, and one frame of the retired v1
// layout.
func queryFrameSeeds() [][]byte {
	queries := []Query{
		{Op: OpSet, Key: []byte("alpha"), Value: []byte("one")},
		{Op: OpGet, Key: []byte("beta")},
		{Op: OpDelete, Key: bytes.Repeat([]byte("k"), 300)},
	}
	v2 := EncodeFrameV2(nil, 0x1122334455667788, queries)
	return [][]byte{
		v2, v2[:len(v2)/2], v2[:17],
		v2[:headerLenV2], // header whose count the payload cannot hold
		flipLast(v2),     // checksum mismatch
		EncodeFrameV2(nil, 1, nil),
		EncodeFrameV2(nil, 0, []Query{{Op: OpSet, Key: []byte("empty")}}),
		EncodeFrameV2(nil, 2, []Query{ScanQuery([]byte("a"), []byte("z"), 16)}),
		v1Query(queries[0]),
		[]byte("DKV2"), []byte("XXXX"), {},
	}
}

// flipLast returns a copy of frame with its last byte inverted.
func flipLast(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	out[len(out)-1] ^= 0xFF
	return out
}

func FuzzParseFrame(f *testing.F) {
	for _, seed := range queryFrameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		// Must never panic; on success every key/value must alias the frame.
		qs, id, err := ParseFrameID(frame, nil)
		if err != nil {
			return
		}
		count, id2, err2 := FrameHeader(frame)
		if err2 != nil || count != len(qs) || id2 != id {
			t.Fatalf("FrameHeader and ParseFrameID disagree: %d/%d/%v vs %d/%d", count, id2, err2, len(qs), id)
		}
		for _, q := range qs {
			if len(q.Key) > len(frame) || len(q.Value) > len(frame) {
				t.Fatalf("query slice longer than frame: %d/%d", len(q.Key), len(q.Value))
			}
		}
		// Re-encoding the parsed queries must reparse to the same queries.
		again := EncodeFrameV2(nil, id, qs)
		qs3, id3, err := ParseFrameID(again, nil)
		if err != nil || id3 != id || len(qs3) != len(qs) {
			t.Fatalf("re-encode mismatch: %d queries id %d err %v", len(qs3), id3, err)
		}
		for i := range qs {
			if !bytes.Equal(qs[i].Key, qs3[i].Key) || !bytes.Equal(qs[i].Value, qs3[i].Value) || qs[i].Op != qs3[i].Op {
				t.Fatalf("query %d mutated across re-encode", i)
			}
		}
	})
}

func respFrameSeeds() [][]byte {
	resps := []Response{
		{Status: StatusOK, Value: []byte("value")},
		{Status: StatusNotFound},
		{Status: StatusError},
		{Status: StatusBusy},
		{Status: StatusOK, Value: bytes.Repeat([]byte("v"), 500)},
	}
	v2 := EncodeResponseFrameV2(nil, 0x55AA, 3, resps)
	scanBlock, mark := BeginScanResult(nil)
	scanBlock = AppendScanEntry(scanBlock, []byte("a"), []byte("1"))
	FinishScanResult(scanBlock, mark, 1)
	return [][]byte{
		v2, v2[:len(v2)/2], v2[:19],
		v2[:respHeaderLenV2], // header whose count the payload cannot hold
		flipLast(v2),         // checksum mismatch
		EncodeResponseFrameV2(nil, 1, 0, nil),
		EncodeResponseFrameV2(nil, 0, 0xFFFF, []Response{{Status: StatusBusy}}),
		EncodeResponseFrameV2(nil, 2, 0, []Response{{Status: StatusOK, Value: scanBlock}}),
		v1Response(resps[0]),
		[]byte("DKV2"), {},
	}
}

func FuzzParseResponseFrame(f *testing.F) {
	for _, seed := range respFrameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		rs, id, off, err := ParseResponseFrameID(frame, nil)
		if err != nil {
			return
		}
		for _, r := range rs {
			if len(r.Value) > len(frame) {
				t.Fatalf("value slice longer than frame: %d", len(r.Value))
			}
		}
		if off < 0 || off > 0xFFFF {
			t.Fatalf("offset out of range: %d", off)
		}
		// Round trip through the encoder.
		again := EncodeResponseFrameV2(nil, id, off, rs)
		rs3, id3, off3, err := ParseResponseFrameID(again, nil)
		if err != nil || id3 != id || off3 != off || len(rs3) != len(rs) {
			t.Fatalf("re-encode mismatch: %d resps id %d off %d err %v", len(rs3), id3, off3, err)
		}
		for i := range rs {
			if rs[i].Status != rs3[i].Status || !bytes.Equal(rs[i].Value, rs3[i].Value) {
				t.Fatalf("response %d mutated across re-encode", i)
			}
		}
	})
}
