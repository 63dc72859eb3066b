// Frame codec: the unit of integrity on the TCP transport. A pipe
// tears at byte granularity and the stream's line reader already
// survives that; a network adds corruption modes a pipe cannot have — bit flips
// past a bad NIC, a proxy truncating mid-write, an impostor feeding
// garbage — so every byte on the wire travels inside a length-prefixed
// CRC-32-trailed frame:
//
//	[4B big-endian length n] [1B type] [n-1B payload] [4B CRC-32/IEEE]
//
// The length covers type+payload; the CRC covers the same bytes. A
// frame that fails the length bound or the checksum is not resynchron-
// izable the way the worker stream is (a frame stream has no newline to
// hunt for), so framing errors are connection-fatal: the connection
// dies, the supervisor classifies and redials. Every stream line is
// still re-verified end-to-end by its own CRC on ingest — the frame CRC
// protects the transport, not the ledger.
package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// frameType tags one frame on the supervisor<->agent socket.
type frameType byte

const (
	// ftChallenge (agent->supervisor): version byte + random nonce,
	// opening the handshake.
	ftChallenge frameType = 1
	// ftAuth (supervisor->agent): HMAC over the agent's nonce + the
	// supervisor's own nonce for mutual authentication.
	ftAuth frameType = 2
	// ftAuthOK (agent->supervisor): HMAC over the supervisor's nonce —
	// proof the agent holds the key too (an impostor accepting
	// connections learns nothing and is detected here).
	ftAuthOK frameType = 3
	// ftSpec (supervisor->agent): the JSON shard.Spec, matrix included.
	ftSpec frameType = 4
	// ftSpecOK (agent->supervisor): assignment accepted; payload is the
	// agent's 4-byte pid for supervisor logs.
	ftSpecOK frameType = 5
	// ftStream (agent->supervisor): a chunk of the worker's stdout — its
	// checksummed message lines ride these verbatim.
	ftStream frameType = 6
	// ftExit (agent->supervisor): the worker finished; payload is its
	// 4-byte exit code. Distinguishes a clean close from a torn one.
	ftExit frameType = 7
	// ftTerm (supervisor->agent): graceful drain request — the remote
	// analogue of SIGTERM to an exec'd worker.
	ftTerm frameType = 8
)

// MaxFramePayload bounds a single frame so a garbage length prefix (or
// a hostile peer) cannot make the reader allocate unbounded memory.
// The largest legitimate frame is the spec upload, whose size is the
// matrix JSON plus flags — far under this.
const MaxFramePayload = 16 << 20

// frameOverhead is the fixed per-frame byte cost: length prefix, type,
// CRC trailer.
const frameOverhead = 4 + 1 + 4

// writeFrame encodes one frame to w as a single Write (one syscall on
// a net.Conn, so a frame is never torn by interleaved writers that
// hold the caller's lock).
func writeFrame(w io.Writer, ft frameType, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("shard: frame payload %d bytes exceeds limit %d", len(payload), MaxFramePayload)
	}
	buf := make([]byte, frameOverhead+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(1+len(payload)))
	buf[4] = byte(ft)
	copy(buf[5:], payload)
	crc := crc32.ChecksumIEEE(buf[4 : 5+len(payload)])
	binary.BigEndian.PutUint32(buf[5+len(payload):], crc)
	_, err := w.Write(buf)
	return err
}

// readFrame decodes one frame from r. Any violation — truncation, a
// zero or oversized length, a checksum mismatch — is an error; the
// caller must treat it as connection-fatal (there is no resync point
// in a TCP byte stream).
func readFrame(r io.Reader) (frameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("shard: zero-length frame")
	}
	if n > MaxFramePayload+1 {
		return 0, nil, fmt.Errorf("shard: frame length %d exceeds limit %d", n, MaxFramePayload+1)
	}
	body := make([]byte, n+4) // type+payload plus CRC trailer
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("shard: truncated frame: %w", err)
	}
	want := binary.BigEndian.Uint32(body[n:])
	if got := crc32.ChecksumIEEE(body[:n]); got != want {
		return 0, nil, fmt.Errorf("shard: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	return frameType(body[0]), body[1:n:n], nil
}
