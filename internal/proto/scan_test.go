package proto

import (
	"bytes"
	"testing"
)

func TestScanArgRoundTrip(t *testing.T) {
	q := ScanQuery([]byte("aaa"), []byte("zzz"), 17)
	if q.Op != OpScan || string(q.Key) != "aaa" {
		t.Fatalf("ScanQuery built %+v", q)
	}
	limit, end, err := ParseScanArg(q.Value)
	if err != nil || limit != 17 || string(end) != "zzz" {
		t.Fatalf("ParseScanArg = %d/%q/%v", limit, end, err)
	}
	// Zero limit takes the server default; oversized limits clamp.
	if l, _, _ := ParseScanArg(AppendScanArg(nil, 0, nil)); l != DefaultScanLimit {
		t.Fatalf("zero limit -> %d, want %d", l, DefaultScanLimit)
	}
	if l, _, _ := ParseScanArg(AppendScanArg(nil, 1<<30, nil)); l != MaxScanLimit {
		t.Fatalf("huge limit -> %d, want %d", l, MaxScanLimit)
	}
	// Unbounded end is empty.
	if _, end, _ := ParseScanArg(AppendScanArg(nil, 5, nil)); len(end) != 0 {
		t.Fatalf("unbounded end = %q", end)
	}
	if _, _, err := ParseScanArg([]byte{1, 2}); err != ErrBadScanArg {
		t.Fatalf("truncated arg err = %v", err)
	}
	// A SCAN query survives the ordinary frame round trip.
	frame := EncodeFrameV2(nil, 42, []Query{q})
	qs, id, err := ParseFrameID(frame, nil)
	if err != nil || id != 42 || len(qs) != 1 || qs[0].Op != OpScan {
		t.Fatalf("frame round trip: %v %d %+v", err, id, qs)
	}
}

func TestScanResultRoundTrip(t *testing.T) {
	dst, mark := BeginScanResult(nil)
	dst = AppendScanEntry(dst, []byte("k1"), []byte("v1"))
	dst = AppendScanEntry(dst, []byte("k2"), nil) // empty value is legal
	dst = AppendScanEntry(dst, []byte("k3"), bytes.Repeat([]byte("x"), 300))
	FinishScanResult(dst, mark, 3)

	entries, err := ParseScanResult(dst)
	if err != nil || len(entries) != 3 {
		t.Fatalf("ParseScanResult = %d entries, err %v", len(entries), err)
	}
	if string(entries[0].Key) != "k1" || string(entries[0].Value) != "v1" {
		t.Fatalf("entry 0 = %q/%q", entries[0].Key, entries[0].Value)
	}
	if string(entries[1].Key) != "k2" || len(entries[1].Value) != 0 {
		t.Fatalf("entry 1 = %q/%q", entries[1].Key, entries[1].Value)
	}
	if len(entries[2].Value) != 300 {
		t.Fatalf("entry 2 value len = %d", len(entries[2].Value))
	}

	// Early stop is clean.
	n := 0
	if _, err := DecodeScanResult(dst, func(k, v []byte) bool { n++; return false }); err != nil || n != 1 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}

	// Truncations and over-counts must error, not over-read.
	for cut := 0; cut < len(dst); cut++ {
		if cut >= ScanResultHeaderLen {
			if _, err := DecodeScanResult(dst[:cut], nil); err == nil {
				// A cut can still be valid only if it lands exactly after a
				// whole number of entries AND the count matches — it cannot
				// here since the count says 3.
				t.Fatalf("truncation at %d parsed cleanly", cut)
			}
		}
	}
	lying := append([]byte(nil), dst...)
	FinishScanResult(lying, mark, 4)
	if _, err := DecodeScanResult(lying, nil); err != ErrBadScanResult {
		t.Fatalf("over-count err = %v", err)
	}
}

func TestOpScanString(t *testing.T) {
	if OpScan.String() != "SCAN" {
		t.Fatalf("OpScan.String() = %q", OpScan.String())
	}
}

// FuzzScanOpcode covers the SCAN-bearing wire surface end to end: arbitrary
// bytes must never panic or over-read — whether treated as a whole DKV frame
// holding SCAN queries, as a raw scan argument block, or as a scan result
// block — and every decoded slice must alias the input.
func FuzzScanOpcode(f *testing.F) {
	f.Add(EncodeFrameV2(nil, 7, []Query{ScanQuery([]byte("a"), []byte("q"), 10)}))
	f.Add(EncodeFrameV2(nil, 8, []Query{ScanQuery(nil, nil, 0)}))
	f.Add(EncodeFrameV2(nil, 9, []Query{
		{Op: OpSet, Key: []byte("k"), Value: []byte("v")},
		ScanQuery([]byte("k"), nil, 3),
	}))
	res, mark := BeginScanResult(nil)
	res = AppendScanEntry(res, []byte("k"), []byte("v"))
	FinishScanResult(res, mark, 1)
	f.Add(res)
	f.Add(AppendScanArg(nil, 5, []byte("end")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// As a frame: SCAN queries that survive parsing get their argument
		// block decoded like the server would.
		if qs, _, err := ParseFrameID(data, nil); err == nil {
			for _, q := range qs {
				if q.Op != OpScan {
					continue
				}
				limit, end, err := ParseScanArg(q.Value)
				if err != nil {
					continue
				}
				if limit < 1 || limit > MaxScanLimit {
					t.Fatalf("limit out of range: %d", limit)
				}
				if len(end) > len(data) {
					t.Fatalf("end slice outlives frame: %d > %d", len(end), len(data))
				}
			}
		}
		// As a raw scan argument block.
		if limit, end, err := ParseScanArg(data); err == nil {
			if limit < 1 || limit > MaxScanLimit || len(end) > len(data) {
				t.Fatalf("arg decode out of bounds: %d %d", limit, len(end))
			}
		}
		// As a scan result block: every entry must alias data.
		n := 0
		count, err := DecodeScanResult(data, func(k, v []byte) bool {
			if len(k) > len(data) || len(v) > len(data) {
				t.Fatalf("entry slice longer than input")
			}
			n++
			return true
		})
		if err == nil && n != count {
			t.Fatalf("count %d but visited %d", count, n)
		}
	})
}
