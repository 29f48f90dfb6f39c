package frontend

import (
	"errors"
	"fmt"

	"repro/internal/proto"
)

// RESP2 wire protocol (the Redis serialization protocol, client side):
// commands arrive as arrays of bulk strings ("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n")
// or as inline space-separated lines; replies are simple strings, errors,
// integers, bulk strings and arrays. This file is the pure byte layer — no
// sockets — so the fuzz target can hammer it directly.

// Parser bounds. A client exceeding them gets a protocol error and its
// connection closed (RESP has no way to resynchronise mid-stream after a
// rejected length prefix).
const (
	// maxRESPArgs bounds elements per command array (a DEL/MGET key list).
	maxRESPArgs = 1024
	// maxRESPBulk bounds one bulk-string payload (key or value).
	maxRESPBulk = 1 << 20
	// maxRESPInline bounds one inline command line.
	maxRESPInline = 64 << 10
	// maxRESPCommandBytes bounds one whole encoded command; incomplete input
	// longer than this is rejected rather than buffered forever.
	maxRESPCommandBytes = maxRESPBulk + maxRESPInline
)

// errRESPIncomplete reports that buf holds a prefix of a valid command; the
// caller should read more bytes and retry.
var errRESPIncomplete = errors.New("resp: incomplete command")

// respProtoError is a client-visible protocol violation: the reader answers
// with "-ERR Protocol error: ..." and closes the connection after.
type respProtoError struct{ msg string }

func (e *respProtoError) Error() string { return e.msg }

func respErrf(format string, args ...any) error {
	return &respProtoError{msg: fmt.Sprintf(format, args...)}
}

// parseRESPCommand parses one command from buf into args (appended, aliasing
// buf — valid only while buf's backing array is retained). It returns the
// args, the number of bytes consumed, and an error: errRESPIncomplete when
// buf ends mid-command, a *respProtoError on a protocol violation, nil on
// success. A consumed empty line (or "*0") yields zero args and nil error.
//
// The incomplete verdict is bounded: when buf ends mid-command, buf is by
// definition a single command's prefix, so a prefix already past
// maxRESPCommandBytes can never complete within budget and is rejected
// outright. Without this, a prefix that happens to end at an arg boundary
// (or mid-'$' header) would report incomplete forever while the reader's
// buffer is capped — a zero-length-read spin.
func parseRESPCommand(buf []byte, args [][]byte) ([][]byte, int, error) {
	args, n, err := parseRESPCommandRaw(buf, args)
	if errors.Is(err, errRESPIncomplete) && len(buf) > maxRESPCommandBytes {
		return args, 0, respErrf("Protocol error: command too large")
	}
	return args, n, err
}

func parseRESPCommandRaw(buf []byte, args [][]byte) ([][]byte, int, error) {
	if len(buf) == 0 {
		return args, 0, errRESPIncomplete
	}
	if buf[0] != '*' {
		return parseRESPInline(buf, args)
	}
	line, pos, err := respLine(buf, 1)
	if err != nil {
		return args, 0, err
	}
	n, ok := respInt(line)
	if !ok || n < 0 {
		return args, 0, respErrf("Protocol error: invalid multibulk length")
	}
	if n > maxRESPArgs {
		return args, 0, respErrf("Protocol error: invalid multibulk length")
	}
	for i := int64(0); i < n; i++ {
		if pos >= len(buf) {
			return args, 0, errRESPIncomplete
		}
		if buf[pos] != '$' {
			return args, 0, respErrf("Protocol error: expected '$', got '%c'", buf[pos])
		}
		line, next, err := respLine(buf, pos+1)
		if err != nil {
			return args, 0, err
		}
		blen, ok := respInt(line)
		if !ok || blen < 0 || blen > maxRESPBulk {
			return args, 0, respErrf("Protocol error: invalid bulk length")
		}
		end := next + int(blen)
		if end+2 > len(buf) {
			return args, 0, errRESPIncomplete
		}
		if buf[end] != '\r' || buf[end+1] != '\n' {
			return args, 0, respErrf("Protocol error: bulk string missing CRLF")
		}
		args = append(args, buf[next:end])
		pos = end + 2
	}
	return args, pos, nil
}

// parseRESPInline parses a space-separated inline command line (the telnet
// form redis also accepts). No quoting — this exists for hand-driven
// debugging, not real clients.
func parseRESPInline(buf []byte, args [][]byte) ([][]byte, int, error) {
	line, pos, err := respLine(buf, 0)
	if err != nil {
		if errors.Is(err, errRESPIncomplete) && len(buf) > maxRESPInline {
			return args, 0, respErrf("Protocol error: too big inline request")
		}
		return args, 0, err
	}
	if len(line) > maxRESPInline {
		return args, 0, respErrf("Protocol error: too big inline request")
	}
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			args = append(args, line[start:i])
		}
	}
	return args, pos, nil
}

// respLine returns the line starting at off up to (not including) its "\r\n"
// or bare "\n" terminator, plus the offset just past the terminator.
func respLine(buf []byte, off int) (line []byte, next int, err error) {
	for i := off; i < len(buf); i++ {
		if buf[i] == '\n' {
			end := i
			if end > off && buf[end-1] == '\r' {
				end--
			}
			return buf[off:end], i + 1, nil
		}
	}
	if len(buf)-off > maxRESPInline {
		return nil, 0, respErrf("Protocol error: unterminated line")
	}
	return nil, 0, errRESPIncomplete
}

// respInt parses a decimal integer (optional leading '-') without allocating.
func respInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' {
		neg = true
		i++
		if i == len(b) {
			return 0, false
		}
	}
	var v int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		if v > 1<<40 { // far beyond any legal length; avoid overflow games
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, true
}

// respCmdKind identifies the supported RESP commands plus the in-band error
// pseudo-command.
type respCmdKind uint8

const (
	rcGet respCmdKind = iota + 1
	rcSet
	rcDel
	rcMGet
	rcScan
	rcPing
	rcEcho
	rcQuit
	rcCommand // redis-cli handshake noise; replied with an empty array
	rcErr     // carries errMsg; the connection closes after replying
)

// respCmd is one parsed command: its kind, how many core queries it
// contributed to the frame, and any immediate payload.
type respCmd struct {
	kind respCmdKind
	// nq is the number of consecutive frame queries owned by this command
	// (0 for PING/ECHO/QUIT/COMMAND/rcErr, n for DEL/MGET key lists).
	nq int
	// arg is the PING/ECHO payload; aliases the read buffer.
	arg []byte
	// errMsg is the rcErr reply text (without the leading "-").
	errMsg string
}

// upperEq reports whether b equals the upper-case ASCII word s,
// case-insensitively, without allocating.
func upperEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// buildRESPCommand maps one parsed arg vector onto a command and appends its
// core queries. Unknown commands and arity errors become rcErr commands — the
// reply keeps the stream in sync, then the connection closes.
func buildRESPCommand(args [][]byte, queries []proto.Query) (respCmd, []proto.Query) {
	name := args[0]
	switch {
	case upperEq(name, "GET"):
		if len(args) != 2 {
			return respArityErr("get"), queries
		}
		queries = append(queries, proto.Query{Op: proto.OpGet, Key: args[1]})
		return respCmd{kind: rcGet, nq: 1}, queries
	case upperEq(name, "SET"):
		if len(args) != 3 {
			return respArityErr("set"), queries
		}
		queries = append(queries, proto.Query{Op: proto.OpSet, Key: args[1], Value: args[2]})
		return respCmd{kind: rcSet, nq: 1}, queries
	case upperEq(name, "DEL"):
		if len(args) < 2 {
			return respArityErr("del"), queries
		}
		for _, k := range args[1:] {
			queries = append(queries, proto.Query{Op: proto.OpDelete, Key: k})
		}
		return respCmd{kind: rcDel, nq: len(args) - 1}, queries
	case upperEq(name, "MGET"):
		if len(args) < 2 {
			return respArityErr("mget"), queries
		}
		for _, k := range args[1:] {
			queries = append(queries, proto.Query{Op: proto.OpGet, Key: k})
		}
		return respCmd{kind: rcMGet, nq: len(args) - 1}, queries
	case upperEq(name, "SCAN"):
		// SCAN start end [limit]: range scan over [start, end) — not redis's
		// cursor SCAN. Empty start means the smallest key; empty end means
		// unbounded; limit 0/omitted means the server default. Paginate by
		// re-issuing with start = last key + "\x00".
		if len(args) != 3 && len(args) != 4 {
			return respArityErr("scan"), queries
		}
		limit := int64(0)
		if len(args) == 4 {
			var ok bool
			limit, ok = respInt(args[3])
			if !ok || limit < 0 {
				return respCmd{kind: rcErr,
					errMsg: "ERR value is not an integer or out of range"}, queries
			}
		}
		queries = append(queries, proto.ScanQuery(args[1], args[2], int(limit)))
		return respCmd{kind: rcScan, nq: 1}, queries
	case upperEq(name, "PING"):
		if len(args) > 2 {
			return respArityErr("ping"), queries
		}
		var msg []byte
		if len(args) == 2 {
			msg = args[1]
		}
		return respCmd{kind: rcPing, arg: msg}, queries
	case upperEq(name, "ECHO"):
		if len(args) != 2 {
			return respArityErr("echo"), queries
		}
		return respCmd{kind: rcEcho, arg: args[1]}, queries
	case upperEq(name, "QUIT"):
		return respCmd{kind: rcQuit}, queries
	case upperEq(name, "COMMAND"):
		return respCmd{kind: rcCommand}, queries
	default:
		// Truncate pathological names so the error reply stays bounded.
		n := name
		if len(n) > 128 {
			n = n[:128]
		}
		return respCmd{kind: rcErr,
			errMsg: fmt.Sprintf("ERR unknown command '%s'", n)}, queries
	}
}

func respArityErr(name string) respCmd {
	return respCmd{kind: rcErr,
		errMsg: fmt.Sprintf("ERR wrong number of arguments for '%s' command", name)}
}

// --- reply encoding ---

func appendRESPBulk(dst, v []byte) []byte {
	dst = append(dst, '$')
	dst = appendRESPIntBytes(dst, int64(len(v)))
	dst = append(dst, '\r', '\n')
	dst = append(dst, v...)
	return append(dst, '\r', '\n')
}

func appendRESPIntBytes(dst []byte, v int64) []byte {
	var tmp [20]byte
	i := len(tmp)
	neg := v < 0
	if neg {
		v = -v
	}
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	if neg {
		i--
		tmp[i] = '-'
	}
	return append(dst, tmp[i:]...)
}

func appendRESPInt(dst []byte, v int64) []byte {
	dst = append(dst, ':')
	dst = appendRESPIntBytes(dst, v)
	return append(dst, '\r', '\n')
}

var respNilBulk = []byte("$-1\r\n")

// respStatusErr is the error reply for a non-OK per-query status.
func respStatusErr(st proto.Status) string {
	switch st {
	case proto.StatusBusy:
		return "-BUSY server overloaded, retry later\r\n"
	case proto.StatusNotFound:
		return "-ERR not found\r\n"
	default:
		return respInternalErr
	}
}

const respInternalErr = "-ERR internal error\r\n"

// appendRESPStatusErr renders a non-OK per-query status as an error reply.
func appendRESPStatusErr(dst []byte, st proto.Status) []byte {
	return append(dst, respStatusErr(st)...)
}

// respIntLen is the length of v in decimal, sign included.
func respIntLen(v int64) int {
	n := 1
	if v < 0 {
		n++
		v = -v
	}
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// respBulkLen is the length of appendRESPBulk's rendering of v.
func respBulkLen(v []byte) int { return 5 + respIntLen(int64(len(v))) + len(v) }

// respRepliesLen is the exact length of appendRESPReplies(nil, cmds, resps),
// so a frame's reply buffer can be allocated once at its final size instead
// of grown by doubling.
func respRepliesLen(cmds []respCmd, resps []proto.Response) int {
	n, qi := 0, 0
	for _, c := range cmds {
		switch c.kind {
		case rcGet:
			switch r := resps[qi]; r.Status {
			case proto.StatusOK:
				n += respBulkLen(r.Value)
			case proto.StatusNotFound:
				n += len(respNilBulk)
			default:
				n += len(respStatusErr(r.Status))
			}
		case rcSet:
			if r := resps[qi]; r.Status == proto.StatusOK {
				n += len("+OK\r\n")
			} else {
				n += len(respStatusErr(r.Status))
			}
		case rcDel:
			ok := 0
			for _, r := range resps[qi : qi+c.nq] {
				if r.Status == proto.StatusOK {
					ok++
				}
			}
			n += 3 + respIntLen(int64(ok))
		case rcMGet:
			n += 3 + respIntLen(int64(c.nq))
			for _, r := range resps[qi : qi+c.nq] {
				if r.Status == proto.StatusOK {
					n += respBulkLen(r.Value)
				} else {
					n += len(respNilBulk)
				}
			}
		case rcScan:
			r := resps[qi]
			if r.Status != proto.StatusOK {
				n += len(respStatusErr(r.Status))
				break
			}
			size := 0
			entries, err := proto.DecodeScanResult(r.Value, func(k, v []byte) bool {
				size += respBulkLen(k) + respBulkLen(v)
				return true
			})
			if err != nil {
				n += len(respInternalErr)
				break
			}
			n += 3 + respIntLen(int64(2*entries)) + size
		case rcPing:
			if c.arg == nil {
				n += len("+PONG\r\n")
			} else {
				n += respBulkLen(c.arg)
			}
		case rcEcho:
			n += respBulkLen(c.arg)
		case rcQuit:
			n += len("+OK\r\n")
		case rcCommand:
			n += len("*0\r\n")
		case rcErr:
			n += 3 + len(c.errMsg)
		}
		qi += c.nq
	}
	return n
}

// appendRESPReplies renders one frame's replies: each command consumes its nq
// responses from resps, in order. resps may be shorter than the frame's query
// count only if the core poisoned the frame — callers use appendRESPFail then.
func appendRESPReplies(dst []byte, cmds []respCmd, resps []proto.Response) []byte {
	qi := 0
	for _, c := range cmds {
		switch c.kind {
		case rcGet:
			r := resps[qi]
			switch r.Status {
			case proto.StatusOK:
				dst = appendRESPBulk(dst, r.Value)
			case proto.StatusNotFound:
				dst = append(dst, respNilBulk...)
			default:
				dst = appendRESPStatusErr(dst, r.Status)
			}
		case rcSet:
			r := resps[qi]
			if r.Status == proto.StatusOK {
				dst = append(dst, "+OK\r\n"...)
			} else {
				dst = appendRESPStatusErr(dst, r.Status)
			}
		case rcDel:
			n := int64(0)
			for i := 0; i < c.nq; i++ {
				if resps[qi+i].Status == proto.StatusOK {
					n++
				}
			}
			dst = appendRESPInt(dst, n)
		case rcMGet:
			dst = append(dst, '*')
			dst = appendRESPIntBytes(dst, int64(c.nq))
			dst = append(dst, '\r', '\n')
			for i := 0; i < c.nq; i++ {
				r := resps[qi+i]
				if r.Status == proto.StatusOK {
					dst = appendRESPBulk(dst, r.Value)
				} else {
					dst = append(dst, respNilBulk...)
				}
			}
		case rcScan:
			r := resps[qi]
			if r.Status != proto.StatusOK {
				dst = appendRESPStatusErr(dst, r.Status)
				break
			}
			// Flat array of alternating key/value bulks. First pass counts
			// (and validates) the block; second renders it.
			n, err := proto.DecodeScanResult(r.Value, func(_, _ []byte) bool { return true })
			if err != nil {
				dst = append(dst, respInternalErr...)
				break
			}
			dst = append(dst, '*')
			dst = appendRESPIntBytes(dst, int64(2*n))
			dst = append(dst, '\r', '\n')
			proto.DecodeScanResult(r.Value, func(k, v []byte) bool {
				dst = appendRESPBulk(dst, k)
				dst = appendRESPBulk(dst, v)
				return true
			})
		case rcPing:
			if c.arg == nil {
				dst = append(dst, "+PONG\r\n"...)
			} else {
				dst = appendRESPBulk(dst, c.arg)
			}
		case rcEcho:
			dst = appendRESPBulk(dst, c.arg)
		case rcQuit:
			dst = append(dst, "+OK\r\n"...)
		case rcCommand:
			dst = append(dst, "*0\r\n"...)
		case rcErr:
			dst = append(dst, '-')
			dst = append(dst, c.errMsg...)
			dst = append(dst, '\r', '\n')
		}
		qi += c.nq
	}
	return dst
}

// appendRESPBusy answers every command in a shed frame with -BUSY (rcErr
// keeps its own message so the protocol-error reply still reaches the client).
func appendRESPBusy(dst []byte, cmds []respCmd) []byte {
	for _, c := range cmds {
		if c.kind == rcErr {
			dst = append(dst, '-')
			dst = append(dst, c.errMsg...)
			dst = append(dst, '\r', '\n')
			continue
		}
		dst = append(dst, "-BUSY server overloaded, retry later\r\n"...)
	}
	return dst
}

// appendRESPFail answers every command in a frame whose execution produced no
// responses (poisoned batch, WAL commit failure) with -ERR <reason>, keeping
// the connection's reply stream aligned with its command stream.
func appendRESPFail(dst []byte, cmds []respCmd, reason string) []byte {
	for _, c := range cmds {
		if c.kind == rcErr {
			dst = append(dst, '-')
			dst = append(dst, c.errMsg...)
			dst = append(dst, '\r', '\n')
			continue
		}
		dst = append(dst, "-ERR "...)
		dst = append(dst, reason...)
		dst = append(dst, '\r', '\n')
	}
	return dst
}
