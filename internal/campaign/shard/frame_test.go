package shard

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestFrameRoundTrip: every (type, payload) the codec accepts comes
// back byte-identical, including the empty payload and sizes that
// straddle typical read-buffer boundaries.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sizes := []int{0, 1, 2, 31, 32, 33, 4095, 4096, 4097, 64 << 10}
	for _, size := range sizes {
		payload := make([]byte, size)
		rng.Read(payload)
		for _, ft := range []frameType{ftChallenge, ftSpec, ftStream, ftExit, ftTerm} {
			var buf bytes.Buffer
			if err := writeFrame(&buf, ft, payload); err != nil {
				t.Fatalf("writeFrame(%d, %d bytes): %v", ft, size, err)
			}
			if buf.Len() != frameOverhead+size {
				t.Fatalf("frame of %d payload bytes encoded to %d, want %d", size, buf.Len(), frameOverhead+size)
			}
			gotFt, gotPayload, err := readFrame(&buf)
			if err != nil {
				t.Fatalf("readFrame(%d, %d bytes): %v", ft, size, err)
			}
			if gotFt != ft || !bytes.Equal(gotPayload, payload) {
				t.Fatalf("round trip mangled frame type %d size %d (got type %d, %d bytes)", ft, size, gotFt, len(gotPayload))
			}
		}
	}
}

// TestFrameTruncation: every strict prefix of a valid frame is an
// error, never a short success — a connection dying mid-frame must
// surface, not silently deliver a partial payload.
func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, ftStream, testLine(campaign.Message{Kind: "hb", Done: 3})); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := readFrame(bytes.NewReader(whole[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed as a whole frame", cut, len(whole))
		}
		// Truncation inside the body must say so (EOF on the header is
		// the normal end-of-stream and stays plain io.EOF).
		if cut >= 4 && err != io.ErrUnexpectedEOF && !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut at %d: error %v does not identify truncation", cut, err)
		}
	}
}

// TestFrameBitFlip: flipping any single bit anywhere in an encoded
// frame — length prefix, type, payload, or CRC — must fail the read.
// This is the transport's whole integrity claim: a bad NIC cannot turn
// one spec into another.
func TestFrameBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, ftSpec, []byte(`{"Shard":3,"Cells":[0,1,2]}`)); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for i := 0; i < len(whole); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), whole...)
			flipped[i] ^= 1 << bit
			if ft, payload, err := readFrame(bytes.NewReader(flipped)); err == nil {
				t.Fatalf("bit %d of byte %d flipped, frame still accepted (type %d, %d bytes)", bit, i, ft, len(payload))
			}
		}
	}
}

// TestFrameOversize: a hostile or garbage length prefix beyond the
// payload bound is rejected from the 4-byte header alone, before any
// allocation or read of the claimed body.
func TestFrameOversize(t *testing.T) {
	if err := writeFrame(io.Discard, ftStream, make([]byte, MaxFramePayload+1)); err == nil {
		t.Error("writeFrame accepted an over-limit payload")
	}
	// Header claims 1 GiB; the reader must reject it without trying to
	// consume (failingReader proves no body read happens).
	hdr := []byte{0x40, 0x00, 0x00, 0x00}
	_, _, err := readFrame(io.MultiReader(bytes.NewReader(hdr), failingReader{}))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized length prefix: %v, want limit rejection", err)
	}
	// A zero length is equally meaningless (every frame has a type byte).
	_, _, err = readFrame(bytes.NewReader([]byte{0, 0, 0, 0}))
	if err == nil || !strings.Contains(err.Error(), "zero-length") {
		t.Errorf("zero length prefix: %v, want rejection", err)
	}
}

// failingReader fails the test of anyone who reads from it.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) {
	panic("readFrame read a body for a length it should have rejected")
}

// TestFrameGarbage: random byte streams never parse (the CRC would
// have to collide), and never panic or over-allocate.
func TestFrameGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		junk := make([]byte, rng.Intn(256))
		rng.Read(junk)
		// Keep the claimed length in bounds so the read path past the
		// header check is exercised too.
		if len(junk) >= 4 {
			junk[0], junk[1] = 0, 0
		}
		if ft, payload, err := readFrame(bytes.NewReader(junk)); err == nil {
			t.Fatalf("garbage stream %d parsed as frame (type %d, %d bytes)", i, ft, len(payload))
		}
	}
}

// FuzzReadFrame: the decoder must never panic and never accept a
// stream that a re-encode of its own result would not reproduce — a
// parsed frame IS the canonical encoding of its content.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrame(&seed, ftStream, testLine(campaign.Message{Kind: "hb", Done: 4}))
	f.Add(seed.Bytes())
	_ = writeFrame(&seed, ftSpec, []byte(`{"Shard":1}`))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 6, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxFramePayload {
			t.Fatalf("accepted %d-byte payload past the %d bound", len(payload), MaxFramePayload)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, ft, payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("accepted frame is not the canonical encoding of its content")
		}
	})
}
