package repl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// frameHdrLen is the fixed frame header: type byte, u32le payload
// length, u32le payload CRC.
const frameHdrLen = 9

// appendFrame appends one framed message to dst and returns the
// extended slice (the library-wide dst-append contract).
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// writeFrame writes one framed message through scratch (recycled across
// frames so steady streaming allocates nothing warm).
func writeFrame(w io.Writer, scratch *[]byte, typ byte, payload []byte) error {
	b := appendFrame((*scratch)[:0], typ, payload)
	*scratch = b[:0]
	_, err := w.Write(b)
	return err
}

// readFrame reads one frame, reusing buf for the payload. Every way the
// bytes can be wrong — unknown type, length beyond max, short read,
// checksum mismatch — is an error, never a panic and never a giant
// allocation: the length prefix is validated before any buffer grows.
// The returned payload aliases the returned buffer and is valid until
// the next readFrame call with it.
func readFrame(r io.Reader, maxFrame int, buf []byte) (typ byte, payload, nbuf []byte, err error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	typ = hdr[0]
	if typ == 0 || typ >= fmMax {
		return 0, nil, buf, fmt.Errorf("repl: unknown frame type %#x", typ)
	}
	ln := binary.LittleEndian.Uint32(hdr[1:5])
	if uint64(ln) > uint64(maxFrame) {
		return 0, nil, buf, fmt.Errorf("repl: %d-byte frame exceeds the %d-byte limit", ln, maxFrame)
	}
	if cap(buf) < int(ln) {
		buf = make([]byte, ln)
	}
	payload = buf[:ln]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a torn frame, not a clean close
		}
		return 0, nil, buf, err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[5:9]); got != want {
		return 0, nil, buf, fmt.Errorf("repl: frame checksum mismatch (crc %#x, want %#x)", got, want)
	}
	return typ, payload, buf, nil
}

// seqPayload encodes the single-uvarint payload shared by SNAP_BEGIN,
// PING and ACK frames.
func seqPayload(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst[:0], v)
}

// parseSeq decodes a single-uvarint payload, rejecting trailing bytes.
func parseSeq(p []byte) (uint64, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || n != len(p) {
		return 0, fmt.Errorf("repl: malformed sequence payload (%d bytes)", len(p))
	}
	return v, nil
}

// seqTermPayload encodes the two-uvarint payload of a HELLO frame: the
// leader's head sequence and its term.
func seqTermPayload(dst []byte, seq, term uint64) []byte {
	dst = binary.AppendUvarint(dst[:0], seq)
	return binary.AppendUvarint(dst, term)
}

// parseSeqTerm decodes a two-uvarint payload, rejecting trailing bytes.
func parseSeqTerm(p []byte) (seq, term uint64, err error) {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, fmt.Errorf("repl: truncated seq")
	}
	p = p[n:]
	term, n = binary.Uvarint(p)
	if n <= 0 || n != len(p) {
		return 0, 0, fmt.Errorf("repl: malformed term payload (%d trailing bytes)", len(p)-n)
	}
	return seq, term, nil
}

// follow is a decoded FOLLOW handshake.
type follow struct {
	seq  uint64 // last applied sequence
	term uint64 // highest leader term adopted
	id   string // stable follower identity
	// sum is the CRC-32 of the wal window payload the follower applied
	// at seq, when hasSum; a follower that reached seq through a
	// snapshot or a restart does not know it and omits it.
	sum    uint32
	hasSum bool
}

// followPayload encodes the FOLLOW handshake: the follower's last
// applied sequence, the highest leader term it has adopted, its stable
// identity and, optionally, a u32le checksum of the window it applied
// at that sequence.
func followPayload(dst []byte, fl follow) []byte {
	dst = binary.AppendUvarint(dst[:0], fl.seq)
	dst = binary.AppendUvarint(dst, fl.term)
	dst = binary.AppendUvarint(dst, uint64(len(fl.id)))
	dst = append(dst, fl.id...)
	if fl.hasSum {
		dst = binary.LittleEndian.AppendUint32(dst, fl.sum)
	}
	return dst
}

// parseFollow decodes a FOLLOW payload.
func parseFollow(p []byte) (fl follow, err error) {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return fl, fmt.Errorf("repl: truncated FOLLOW seq")
	}
	p = p[n:]
	term, n := binary.Uvarint(p)
	if n <= 0 {
		return fl, fmt.Errorf("repl: truncated FOLLOW term")
	}
	p = p[n:]
	ln, n := binary.Uvarint(p)
	if n <= 0 {
		return fl, fmt.Errorf("repl: truncated FOLLOW id length")
	}
	p = p[n:]
	if ln > MaxFollowerIDLen {
		return fl, fmt.Errorf("repl: follower id of %d bytes exceeds the %d-byte limit", ln, MaxFollowerIDLen)
	}
	if ln > uint64(len(p)) {
		return fl, fmt.Errorf("repl: FOLLOW id length %d does not match payload", ln)
	}
	fl = follow{seq: seq, term: term, id: string(p[:ln])}
	switch rest := p[ln:]; len(rest) {
	case 0:
	case 4:
		fl.sum, fl.hasSum = binary.LittleEndian.Uint32(rest), true
	default:
		return follow{}, fmt.Errorf("repl: FOLLOW id length %d does not match payload", ln)
	}
	return fl, nil
}

// windowPayload prefixes one wal-encoded window payload with the
// leader's term — the fencing bit a follower checks before applying.
func windowPayload(dst []byte, term uint64, win []byte) []byte {
	dst = binary.AppendUvarint(dst[:0], term)
	return append(dst, win...)
}

// splitWindowTerm strips the term prefix off a WINDOW frame payload,
// returning the term and the wal window payload that follows.
func splitWindowTerm(p []byte) (term uint64, win []byte, err error) {
	term, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, fmt.Errorf("repl: truncated WINDOW term")
	}
	return term, p[n:], nil
}
