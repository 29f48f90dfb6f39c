package frontend

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/proto"
)

func TestParseRESPCommandArrays(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string
		n    int
	}{
		{"get", "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n", []string{"GET", "k"}, 20},
		{"set", "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nvv\r\n", []string{"SET", "k", "vv"}, 28},
		{"empty array", "*0\r\n", nil, 4},
		{"empty bulk", "*1\r\n$0\r\n\r\n", []string{""}, 10},
		{"binary value", "*2\r\n$3\r\nGET\r\n$3\r\n\x00\r\x01\r\n", []string{"GET", "\x00\r\x01"}, 22},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args, n, err := parseRESPCommand([]byte(tc.in), nil)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if n != tc.n {
				t.Fatalf("consumed %d bytes, want %d", n, tc.n)
			}
			if len(args) != len(tc.want) {
				t.Fatalf("got %d args, want %d", len(args), len(tc.want))
			}
			for i, a := range args {
				if string(a) != tc.want[i] {
					t.Fatalf("arg %d = %q, want %q", i, a, tc.want[i])
				}
			}
		})
	}
}

func TestParseRESPCommandInline(t *testing.T) {
	args, n, err := parseRESPCommand([]byte("GET  key1\t extra\r\nrest"), nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if n != 18 {
		t.Fatalf("consumed %d, want 18", n)
	}
	want := []string{"GET", "key1", "extra"}
	for i, a := range args {
		if string(a) != want[i] {
			t.Fatalf("arg %d = %q, want %q", i, a, want[i])
		}
	}
	// Bare-\n termination (telnet without CRLF) also works.
	if _, n, err = parseRESPCommand([]byte("PING\n"), nil); err != nil || n != 5 {
		t.Fatalf("bare newline: n=%d err=%v", n, err)
	}
}

// TestParseRESPCommandTorn feeds every prefix of valid commands: each must
// report errRESPIncomplete without consuming anything, and the full buffer
// must then parse.
func TestParseRESPCommandTorn(t *testing.T) {
	for _, full := range []string{
		"*2\r\n$3\r\nGET\r\n$5\r\nhello\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$3\r\nabc\r\n",
		"*4\r\n$4\r\nMGET\r\n$1\r\na\r\n$1\r\nb\r\n$1\r\nc\r\n",
		"PING hello\r\n",
	} {
		for cut := 0; cut < len(full); cut++ {
			args, n, err := parseRESPCommand([]byte(full[:cut]), nil)
			if !errors.Is(err, errRESPIncomplete) {
				// An inline prefix of an array command is fine to reject later,
				// but these prefixes are all incomplete, never malformed.
				t.Fatalf("prefix %q: got args=%v n=%d err=%v, want incomplete", full[:cut], args, n, err)
			}
			if n != 0 {
				t.Fatalf("prefix %q consumed %d bytes on incomplete", full[:cut], n)
			}
		}
		if _, _, err := parseRESPCommand([]byte(full), nil); err != nil {
			t.Fatalf("full %q: %v", full, err)
		}
	}
}

func TestParseRESPCommandMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"negative multibulk", "*-2\r\nx"},
		{"huge multibulk", fmt.Sprintf("*%d\r\n", maxRESPArgs+1)},
		{"non-numeric multibulk", "*abc\r\n"},
		{"missing dollar", "*1\r\n:3\r\nfoo\r\n"},
		{"negative bulk len", "*1\r\n$-1\r\n"},
		{"huge bulk len", fmt.Sprintf("*1\r\n$%d\r\n", maxRESPBulk+1)},
		{"bulk missing CRLF", "*1\r\n$3\r\nfooXY"},
		{"oversized inline", strings.Repeat("a", maxRESPInline+2) + "\r\n"},
		{"unterminated oversized", strings.Repeat("b", maxRESPInline+2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseRESPCommand([]byte(tc.in), nil)
			var pe *respProtoError
			if !errors.As(err, &pe) {
				t.Fatalf("got err=%v, want *respProtoError", err)
			}
		})
	}
	// A valid-but-incomplete command larger than the command budget is
	// rejected rather than buffered forever — on EVERY incomplete shape, not
	// just mid-bulk-body. The arg-boundary and mid-'$'-header shapes below
	// regression-test an infinite zero-length-read spin: they used to report
	// incomplete forever while the reader's buffer was already at its cap.
	// 2048-byte args cross the command cap after ~550 of the declared 1024
	// args, so the buffer ends at an arg boundary with the command still
	// incomplete.
	atBoundary := []byte(fmt.Sprintf("*%d\r\n", maxRESPArgs))
	arg := []byte("$2048\r\n" + strings.Repeat("k", 2048) + "\r\n")
	for len(atBoundary) <= maxRESPCommandBytes {
		atBoundary = append(atBoundary, arg...)
	}
	midHeader := append(append([]byte{}, atBoundary...), '$')
	midBody := []byte("*2\r\n$3\r\nSET\r\n$999999\r\n")
	midBody = append(midBody, bytes.Repeat([]byte("v"), maxRESPCommandBytes)...)
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"ends at arg boundary", atBoundary},
		{"ends mid bulk header", midHeader},
		{"ends mid bulk body", midBody},
	} {
		t.Run("oversized incomplete "+tc.name, func(t *testing.T) {
			_, _, err := parseRESPCommand(tc.in, nil)
			var pe *respProtoError
			if !errors.As(err, &pe) {
				t.Fatalf("got %v, want protocol error", err)
			}
		})
	}
}

func TestBuildRESPCommandMapping(t *testing.T) {
	build := func(args ...string) (respCmd, []proto.Query) {
		b := make([][]byte, len(args))
		for i, a := range args {
			b[i] = []byte(a)
		}
		return buildRESPCommand(b, nil)
	}
	if c, qs := build("get", "k"); c.kind != rcGet || len(qs) != 1 || qs[0].Op != proto.OpGet {
		t.Fatalf("GET: %+v %+v", c, qs)
	}
	if c, qs := build("SeT", "k", "v"); c.kind != rcSet || len(qs) != 1 || string(qs[0].Value) != "v" {
		t.Fatalf("SET: %+v %+v", c, qs)
	}
	if c, qs := build("DEL", "a", "b"); c.kind != rcDel || c.nq != 2 || len(qs) != 2 || qs[1].Op != proto.OpDelete {
		t.Fatalf("DEL: %+v %+v", c, qs)
	}
	if c, qs := build("MGET", "a", "b", "c"); c.kind != rcMGet || c.nq != 3 || len(qs) != 3 {
		t.Fatalf("MGET: %+v %+v", c, qs)
	}
	if c, qs := build("PING"); c.kind != rcPing || len(qs) != 0 {
		t.Fatalf("PING: %+v %+v", c, qs)
	}
	if c, _ := build("GET"); c.kind != rcErr || !strings.Contains(c.errMsg, "wrong number of arguments") {
		t.Fatalf("GET arity: %+v", c)
	}
	if c, _ := build("FLUSHALL"); c.kind != rcErr || !strings.Contains(c.errMsg, "unknown command") {
		t.Fatalf("unknown: %+v", c)
	}
}

func TestAppendRESPReplies(t *testing.T) {
	cmds := []respCmd{
		{kind: rcSet, nq: 1},
		{kind: rcGet, nq: 1},
		{kind: rcGet, nq: 1},
		{kind: rcDel, nq: 2},
		{kind: rcMGet, nq: 2},
		{kind: rcPing},
	}
	resps := []proto.Response{
		{Status: proto.StatusOK},                                 // SET
		{Status: proto.StatusOK, Value: []byte("val")},           // GET hit
		{Status: proto.StatusNotFound},                           // GET miss
		{Status: proto.StatusOK}, {Status: proto.StatusNotFound}, // DEL a b
		{Status: proto.StatusOK, Value: []byte("x")}, {Status: proto.StatusNotFound}, // MGET
	}
	got := string(appendRESPReplies(nil, cmds, resps))
	want := "+OK\r\n$3\r\nval\r\n$-1\r\n:1\r\n*2\r\n$1\r\nx\r\n$-1\r\n+PONG\r\n"
	if got != want {
		t.Fatalf("replies:\n got %q\nwant %q", got, want)
	}
	busy := string(appendRESPBusy(nil, cmds[:2]))
	if busy != "-BUSY server overloaded, retry later\r\n-BUSY server overloaded, retry later\r\n" {
		t.Fatalf("busy: %q", busy)
	}
	fail := string(appendRESPFail(nil, cmds[:1], "wal commit failed"))
	if fail != "-ERR wal commit failed\r\n" {
		t.Fatalf("fail: %q", fail)
	}
}

// TestRESPRepliesLenExact: the sizing pass predicts the rendered length of
// every reply shape exactly.
func TestRESPRepliesLenExact(t *testing.T) {
	block, mark := proto.BeginScanResult(nil)
	for i := 0; i < 12; i++ {
		block = proto.AppendScanEntry(block, []byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte{'v'}, i*40))
	}
	proto.FinishScanResult(block, mark, 12)
	cmds := []respCmd{
		{kind: rcSet, nq: 1}, {kind: rcSet, nq: 1},
		{kind: rcGet, nq: 1}, {kind: rcGet, nq: 1}, {kind: rcGet, nq: 1}, {kind: rcGet, nq: 1},
		{kind: rcDel, nq: 11},
		{kind: rcMGet, nq: 3},
		{kind: rcScan, nq: 1}, {kind: rcScan, nq: 1}, {kind: rcScan, nq: 1}, {kind: rcScan, nq: 1},
		{kind: rcPing}, {kind: rcPing, arg: []byte("hi")}, {kind: rcEcho, arg: []byte{}},
		{kind: rcQuit}, {kind: rcCommand}, {kind: rcErr, errMsg: "ERR unknown command 'x'"},
	}
	resps := []proto.Response{
		{Status: proto.StatusOK}, {Status: proto.StatusBusy},
		{Status: proto.StatusOK, Value: bytes.Repeat([]byte{'x'}, 12345)}, {Status: proto.StatusOK, Value: []byte{}},
		{Status: proto.StatusNotFound}, {Status: proto.StatusError},
	}
	for i := 0; i < 11; i++ {
		resps = append(resps, proto.Response{Status: proto.StatusOK})
	}
	resps = append(resps,
		proto.Response{Status: proto.StatusOK, Value: []byte("mv")}, proto.Response{Status: proto.StatusNotFound},
		proto.Response{Status: proto.StatusOK, Value: make([]byte, 100)},
		proto.Response{Status: proto.StatusOK, Value: block},
		proto.Response{Status: proto.StatusOK, Value: block[:len(block)-1]}, // truncated
		proto.Response{Status: proto.StatusOK, Value: []byte{0, 0, 0, 0}},
		proto.Response{Status: proto.StatusError})
	for i := range cmds {
		got := appendRESPReplies(nil, cmds[i:i+1], resps[cmdQuery(cmds, i):])
		if n := respRepliesLen(cmds[i:i+1], resps[cmdQuery(cmds, i):]); n != len(got) {
			t.Fatalf("command %d (%q): respRepliesLen = %d, reply is %d bytes", i, got[:min(len(got), 40)], n, len(got))
		}
	}
	if n, got := respRepliesLen(cmds, resps), appendRESPReplies(nil, cmds, resps); n != len(got) {
		t.Fatalf("respRepliesLen = %d, replies are %d bytes", n, len(got))
	}
}

// cmdQuery returns the index of command i's first query.
func cmdQuery(cmds []respCmd, i int) int {
	q := 0
	for _, c := range cmds[:i] {
		q += c.nq
	}
	return q
}

// TestRESPEncodeExactSize: a 256-GET frame's replies are rendered into one
// buffer allocated at its final size.
func TestRESPEncodeExactSize(t *testing.T) {
	cmds := make([]respCmd, 256)
	resps := make([]proto.Response, 256)
	for i := range cmds {
		cmds[i] = respCmd{kind: rcGet, nq: 1}
		resps[i] = proto.Response{Status: proto.StatusOK, Value: bytes.Repeat([]byte{'v'}, i)}
		if i%7 == 0 {
			resps[i] = proto.Response{Status: proto.StatusNotFound}
		}
	}
	f := &Frame{Ctx: &respConn{cmds: cmds}}
	var r RESP
	out := r.Encode(f, resps)
	if len(out) != 1 || cap(out[0]) != len(out[0]) {
		t.Fatalf("Encode: %d units, first of len %d cap %d; want one of cap == len", len(out), len(out[0]), cap(out[0]))
	}
	if allocs := testing.AllocsPerRun(20, func() { r.Encode(f, resps) }); allocs > 2 {
		t.Fatalf("Encode allocates %v times, want at most 2", allocs)
	}
}

// FuzzRESPParse pins the parser's safety contract on arbitrary bytes: it
// never panics, never reports consuming more bytes than it was given, never
// consumes anything alongside an error, and returned args always alias the
// input buffer (no out-of-range reads materialized as slices).
func FuzzRESPParse(f *testing.F) {
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nvv\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n*2\r\n$3\r\nGET")) // torn second command
	f.Add([]byte("GET key\r\nPING\r\n"))
	f.Add([]byte("*1000000000\r\n"))
	f.Add([]byte("*1\r\n$1000000000\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("\r\n\r\n\r\n"))
	f.Add(bytes.Repeat([]byte("a"), maxRESPInline+10))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the buffer the way the conn reader does, parsing command after
		// command until the input is exhausted or rejected.
		pos := 0
		for pos <= len(data) {
			args, n, err := parseRESPCommand(data[pos:], nil)
			if n < 0 || n > len(data)-pos {
				t.Fatalf("consumed %d of %d available", n, len(data)-pos)
			}
			if err != nil {
				if n != 0 {
					t.Fatalf("err %v but consumed %d", err, n)
				}
				var pe *respProtoError
				if !errors.Is(err, errRESPIncomplete) && !errors.As(err, &pe) {
					t.Fatalf("unexpected error type %T: %v", err, err)
				}
				break
			}
			if len(args) > maxRESPArgs {
				t.Fatalf("returned %d args over the cap", len(args))
			}
			for _, a := range args {
				// Each arg must alias data; reading it must be in-bounds.
				for i := range a {
					_ = a[i]
				}
				if len(a) > maxRESPBulk && len(a) > maxRESPInline {
					t.Fatalf("arg of %d bytes exceeds every cap", len(a))
				}
			}
			if len(args) > 0 {
				cmd, qs := buildRESPCommand(args, nil)
				resps := make([]proto.Response, len(qs))
				out := appendRESPReplies(nil, []respCmd{cmd}, resps)
				if len(out) == 0 {
					t.Fatal("command rendered an empty reply")
				}
				if n := respRepliesLen([]respCmd{cmd}, resps); n != len(out) {
					t.Fatalf("respRepliesLen = %d, reply is %d bytes", n, len(out))
				}
			}
			if n == 0 {
				break // empty consumed line contract gives n>0; guard anyway
			}
			pos += n
		}
	})
}
