// Package proto implements the wire protocol of the key-value store: a
// compact binary format ("DKV2") carrying batched queries in a single
// datagram, the way the paper's evaluation batches "queries and their
// responses in an Ethernet frame as many as possible" (§V-A).
//
// A query frame carries a request ID so retries can be deduplicated
// server-side and responses matched to requests, plus a payload checksum so
// corrupted datagrams are dropped rather than misparsed:
//
//	[0:4)   magic "DKV2"
//	[4:6)   query count (little endian)
//	[6:14)  request ID (little endian uint64)
//	[14:18) CRC-32 (IEEE) of the payload after the header
//	then per query:
//	  [1B op] [2B key length] [4B value length] [key bytes] [value bytes]
//
// GET and DELETE queries carry a zero value length. A response frame also
// carries the batch offset of its first response, so response sets split
// across datagrams survive reordering:
//
//	[0:4)   magic "DKV2"
//	[4:6)   response count
//	[6:14)  request ID
//	[14:16) offset of the first response within the request batch
//	[16:20) CRC-32 (IEEE) of the payload after the header
//	then per response:
//	  [1B status] [4B value length] [value bytes]
//
// Parsing is zero-copy: returned key/value slices alias the input buffer.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Op identifies a query type.
type Op byte

// Query operations. GET/SET/DELETE are the full client interface of an IMKV
// (paper §II-B); SCAN is the ordered-index range read (see scan.go for its
// argument and result encodings). Servers without an ordered index answer
// SCAN with StatusError; pre-SCAN servers reject the whole frame (ErrBadOp),
// which the client retry machinery surfaces as a timeout rather than corruption.
const (
	OpGet Op = iota + 1
	OpSet
	OpDelete
	OpScan
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDelete:
		return "DELETE"
	case OpScan:
		return "SCAN"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// Status is a per-query response code.
type Status byte

// Response statuses.
const (
	StatusOK Status = iota + 1
	StatusNotFound
	StatusError
	// StatusBusy reports that the server shed the frame under overload
	// (admission control); the client should back off and retry.
	StatusBusy
)

// Query is one parsed key-value query.
type Query struct {
	Op    Op
	Key   []byte
	Value []byte
}

// Response is one per-query result.
type Response struct {
	Status Status
	Value  []byte
}

var magicV2 = [4]byte{'D', 'K', 'V', '2'}

// Query frame header: magic + uint16 count + uint64 reqID + uint32 crc.
const headerLenV2 = 18

// Response frame header: magic + uint16 count + uint64 reqID +
// uint16 offset + uint32 crc.
const respHeaderLenV2 = 20

// ResponseHeaderLenV2 is the bytes a response frame carries ahead of its
// first response, for callers that size the encoder's dst exactly.
const ResponseHeaderLenV2 = respHeaderLenV2

// queryHeaderLen is op + keyLen + valLen.
const queryHeaderLen = 7

// respHeaderLen is status + valLen.
const respHeaderLen = 5

// MaxFrameBytes is the largest frame this implementation emits; it matches a
// jumbo UDP datagram.
const MaxFrameBytes = 64 << 10

// Errors returned by the parser.
var (
	ErrBadMagic    = errors.New("proto: bad frame magic")
	ErrTruncated   = errors.New("proto: truncated frame")
	ErrBadOp       = errors.New("proto: unknown query op")
	ErrBadChecksum = errors.New("proto: bad frame checksum")
)

// AppendQuery encodes q onto dst and returns the extended slice.
func AppendQuery(dst []byte, q Query) []byte {
	dst = append(dst, byte(q.Op))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(q.Key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.Value)))
	dst = append(dst, q.Key...)
	dst = append(dst, q.Value...)
	return dst
}

// EncodedQueryLen returns the wire size of q.
func EncodedQueryLen(q Query) int {
	return queryHeaderLen + len(q.Key) + len(q.Value)
}

// EncodeFrameV2 builds a frame holding queries, stamped with the given
// request ID and a payload checksum. It panics if the batch exceeds 65535
// queries; callers split batches first.
func EncodeFrameV2(dst []byte, reqID uint64, queries []Query) []byte {
	if len(queries) > 0xFFFF {
		panic("proto: too many queries for one frame")
	}
	base := len(dst)
	dst = append(dst, magicV2[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(queries)))
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = append(dst, 0, 0, 0, 0) // checksum placeholder
	for _, q := range queries {
		dst = AppendQuery(dst, q)
	}
	sum := crc32.ChecksumIEEE(dst[base+headerLenV2:])
	binary.LittleEndian.PutUint32(dst[base+14:base+18], sum)
	return dst
}

// FrameHeader decodes just the header of a query frame: the query count and
// the request ID. The payload checksum is verified, so a positive result
// means the frame is authentic end to end, and the count is checked against
// the payload size, so the count of a valid header can be trusted for sizing
// a reply. This is the cheap pre-parse the server's admission control uses to
// shed a frame without decoding its queries.
func FrameHeader(frame []byte) (count int, reqID uint64, err error) {
	if err := checkMagic(frame, headerLenV2); err != nil {
		return 0, 0, err
	}
	count = int(binary.LittleEndian.Uint16(frame[4:6]))
	reqID = binary.LittleEndian.Uint64(frame[6:14])
	sum := binary.LittleEndian.Uint32(frame[14:18])
	if crc32.ChecksumIEEE(frame[headerLenV2:]) != sum {
		return 0, 0, ErrBadChecksum
	}
	if len(frame)-headerLenV2 < count*queryHeaderLen {
		return 0, 0, ErrTruncated
	}
	return count, reqID, nil
}

// checkMagic returns ErrBadMagic unless frame starts with the DKV2 magic,
// and ErrTruncated when it is too short for the magic or for a header of
// hdrLen bytes.
func checkMagic(frame []byte, hdrLen int) error {
	if len(frame) < len(magicV2) {
		return ErrTruncated
	}
	if [4]byte(frame[:4]) != magicV2 {
		return ErrBadMagic
	}
	if len(frame) < hdrLen {
		return ErrTruncated
	}
	return nil
}

// ParseFrameID decodes all queries in frame, appending to dst, and returns
// the frame's request ID. Key and value slices alias frame. The checksum is
// verified before any query is parsed.
func ParseFrameID(frame []byte, dst []Query) ([]Query, uint64, error) {
	count, reqID, err := FrameHeader(frame)
	if err != nil {
		return dst, 0, err
	}
	dst, err = parseQueries(frame, headerLenV2, count, dst)
	return dst, reqID, err
}

// parseQueries decodes count query records starting at off.
func parseQueries(frame []byte, off, count int, dst []Query) ([]Query, error) {
	for i := 0; i < count; i++ {
		if len(frame)-off < queryHeaderLen {
			return dst, ErrTruncated
		}
		op := Op(frame[off])
		if op != OpGet && op != OpSet && op != OpDelete && op != OpScan {
			return dst, ErrBadOp
		}
		keyLen := int(binary.LittleEndian.Uint16(frame[off+1 : off+3]))
		valLen := int(binary.LittleEndian.Uint32(frame[off+3 : off+7]))
		off += queryHeaderLen
		if len(frame)-off < keyLen+valLen {
			return dst, ErrTruncated
		}
		q := Query{
			Op:  op,
			Key: frame[off : off+keyLen],
		}
		off += keyLen
		if valLen > 0 {
			q.Value = frame[off : off+valLen]
			off += valLen
		}
		dst = append(dst, q)
	}
	return dst, nil
}

// AppendResponse encodes r onto dst.
func AppendResponse(dst []byte, r Response) []byte {
	dst = append(dst, byte(r.Status))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Value)))
	dst = append(dst, r.Value...)
	return dst
}

// EncodeResponseFrameV2 builds a response frame echoing the request ID,
// carrying the batch offset of its first response and a payload checksum.
func EncodeResponseFrameV2(dst []byte, reqID uint64, offset int, resps []Response) []byte {
	if len(resps) > 0xFFFF {
		panic("proto: too many responses for one frame")
	}
	if offset < 0 || offset > 0xFFFF {
		panic("proto: response offset out of range")
	}
	base := len(dst)
	dst = append(dst, magicV2[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(resps)))
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(offset))
	dst = append(dst, 0, 0, 0, 0) // checksum placeholder
	for _, r := range resps {
		dst = AppendResponse(dst, r)
	}
	sum := crc32.ChecksumIEEE(dst[base+respHeaderLenV2:])
	binary.LittleEndian.PutUint32(dst[base+16:base+20], sum)
	return dst
}

// ParseResponseFrameID decodes a response frame, appending to dst, and
// returns the echoed request ID and the batch offset of the frame's first
// response. Value slices alias frame. The checksum is verified before any
// response is parsed.
func ParseResponseFrameID(frame []byte, dst []Response) ([]Response, uint64, int, error) {
	if err := checkMagic(frame, respHeaderLenV2); err != nil {
		return dst, 0, 0, err
	}
	count := int(binary.LittleEndian.Uint16(frame[4:6]))
	reqID := binary.LittleEndian.Uint64(frame[6:14])
	offset := int(binary.LittleEndian.Uint16(frame[14:16]))
	sum := binary.LittleEndian.Uint32(frame[16:20])
	if crc32.ChecksumIEEE(frame[respHeaderLenV2:]) != sum {
		return dst, 0, 0, ErrBadChecksum
	}
	off := respHeaderLenV2
	for i := 0; i < count; i++ {
		if len(frame)-off < respHeaderLen {
			return dst, 0, 0, ErrTruncated
		}
		status := Status(frame[off])
		valLen := int(binary.LittleEndian.Uint32(frame[off+1 : off+5]))
		off += respHeaderLen
		if len(frame)-off < valLen {
			return dst, 0, 0, ErrTruncated
		}
		r := Response{Status: status}
		if valLen > 0 {
			r.Value = frame[off : off+valLen]
			off += valLen
		}
		dst = append(dst, r)
	}
	return dst, reqID, offset, nil
}
