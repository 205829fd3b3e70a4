package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"unsafe"

	"repro/internal/geom"
)

// On-disk format. Both files open with an 8-byte magic so a foreign or
// misplaced file fails loudly instead of replaying as garbage.
//
// wal.log:
//
//	"PSIWAL1\n"
//	record*        where record = u32le payloadLen | u32le crc32(payload) | payload
//
// A record payload is one committed window:
//
//	uvarint seq | uvarint nOps | op*
//	op = flags byte (bit0: delete) | ID | 3 × varint coord (omitted for deletes)
//	ID = uvarint length | the ID's bytes
//
// Coordinates are signed varints (zigzag) over all geom.MaxDims slots —
// unused dimensions are zero by the library-wide point convention and
// cost one byte each. CRC is IEEE CRC-32 over the payload only, so a
// torn length prefix and a torn payload fail the same way: checksum
// mismatch or short read, both handled by truncation at recovery.
//
// wal.snap:
//
//	"PSISNP2\n"
//	uvarint term | uvarint seq | uvarint n | n × (ID | 3 × varint coord)
//	u32le crc32(everything after the magic)
//
// The leader term is journaled with every snapshot, which is how a
// promotion's new term survives a restart. The digit in the magic is the
// format version: a snapshot of any other version (the term-less v1 that
// nothing has written since the term was added) fails Open with an
// "unsupported snapshot version" error rather than being misread.
//
// The snapshot is replaced atomically (write-temp, fsync, rename), so a
// reader never sees a partial one; a checksum mismatch therefore means
// bit rot, which fails Open rather than being silently truncated.
const (
	logMagic  = "PSIWAL1\n"
	snapMagic = "PSISNP2\n"
	magicLen  = 8
	frameLen  = 8 // u32le payload length + u32le payload CRC
)

// Op is one entry of a committed window: a last-write-wins Set of ID to
// P, or (Del) a removal. The window invariant — at most one op per ID,
// produced by the Collection's netting — is what makes replay exact.
// Op is the Collection's window (Collection.SetJournal, CommitWindow), as
// the log and the replication stream carry it.
type Op struct {
	ID  string
	P   geom.Point
	Del bool
}

// EncodeWindowPayload appends the record-payload encoding of one window
// (uvarint seq, uvarint op count, then the ops) to dst and returns the
// extended slice. It is the exact bytes AppendWindowAt frames into
// wal.log, exported so the replication layer (internal/repl) ships the
// same encoding over the wire that the log journals to disk — one
// format, one fuzz surface.
func EncodeWindowPayload(dst []byte, seq uint64, ops []Op) []byte {
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(len(ops)))
	for i := range ops {
		o := &ops[i]
		var flags byte
		if o.Del {
			flags = 1
		}
		dst = append(dst, flags)
		dst = appendID(dst, o.ID)
		if !o.Del {
			for d := 0; d < geom.MaxDims; d++ {
				dst = binary.AppendVarint(dst, o.P[d])
			}
		}
	}
	return dst
}

// DecodeWindowPayload decodes one window payload produced by
// EncodeWindowPayload (or read CRC-valid from wal.log), appending the
// ops to dst (reused across records during replay); a zero-op window is
// valid and decodes to no ops. Each op's ID is a view into payload, valid
// only until the caller reuses payload: a caller that keeps an ID copies
// it. Every malformed shape — truncated varints, overrunning IDs, unknown
// flag bits, trailing bytes — is an error, never a panic: a checksum only
// proves the bytes are what was written, not that a well-formed writer
// wrote them.
func DecodeWindowPayload(payload []byte, dst []Op) (seq uint64, ops []Op, err error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, dst, fmt.Errorf("wal: truncated window seq")
	}
	rest := payload[n:]
	nOps, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, dst, fmt.Errorf("wal: truncated op count")
	}
	rest = rest[n:]
	if nOps > uint64(len(rest)) { // every op costs >= 1 byte: cheap bound before allocating
		return 0, dst, fmt.Errorf("wal: op count %d overruns the record", nOps)
	}
	ops = dst
	for i := uint64(0); i < nOps; i++ {
		if len(rest) == 0 {
			return 0, dst, fmt.Errorf("wal: truncated op %d", i)
		}
		flags := rest[0]
		if flags > 1 {
			return 0, dst, fmt.Errorf("wal: unknown op flags %#x", flags)
		}
		rest = rest[1:]
		var o Op
		o.Del = flags == 1
		var idLen int
		o.ID, idLen, err = decodeID(rest)
		if err != nil {
			return 0, dst, err
		}
		rest = rest[idLen:]
		if !o.Del {
			for d := 0; d < geom.MaxDims; d++ {
				v, n := binary.Varint(rest)
				if n <= 0 {
					return 0, dst, fmt.Errorf("wal: truncated coordinate")
				}
				o.P[d] = v
				rest = rest[n:]
			}
		}
		ops = append(ops, o)
	}
	if len(rest) != 0 {
		return 0, dst, fmt.Errorf("wal: %d trailing bytes after %d ops", len(rest), nOps)
	}
	return seq, ops, nil
}

// putFrame fills the 8-byte record header for payload.
func putFrame(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

// appendID appends id's encoding to dst: uvarint length, then the bytes.
func appendID(dst []byte, id string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(id)))
	return append(dst, id...)
}

// decodeID decodes one ID from the front of src, returning it as a view
// into src (see viewOf) and the bytes consumed. Malformed input is an
// error, never a panic.
func decodeID(src []byte) (string, int, error) {
	ln, n := binary.Uvarint(src)
	if n <= 0 {
		return "", 0, fmt.Errorf("wal: truncated ID length")
	}
	if ln > uint64(len(src)-n) {
		return "", 0, fmt.Errorf("wal: ID length %d overruns the record", ln)
	}
	return viewOf(src[n : n+int(ln)]), n + int(ln), nil
}

// viewOf returns b's bytes as a string without copying them: what recovery
// hands its fold, which must copy whatever it keeps, because the buffer
// under the view is overwritten by the next record or entry.
func viewOf(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }
