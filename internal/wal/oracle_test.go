package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/geom"
)

// recovered is a Recovery beside the state its ops fold to: what Open
// returned before it streamed the ops to a fold instead.
type recovered struct {
	Recovery
	Entries map[string]geom.Point
}

// foldInto returns a fold that applies each op to m, last write wins per
// ID. It clones every ID it keeps: Open's IDs are views of its buffers.
func foldInto(m map[string]geom.Point) func(Op) {
	return func(o Op) {
		if o.Del {
			delete(m, o.ID)
		} else {
			m[strings.Clone(o.ID)] = o.P
		}
	}
}

// openMap is Open folding into a map.
func openMap(dir string, opts Options) (*Log, recovered, error) {
	m := make(map[string]geom.Point)
	l, rec, err := Open(dir, opts, foldInto(m))
	if err != nil {
		return nil, recovered{}, err
	}
	return l, recovered{*rec, m}, nil
}

// streamOps is Open collecting the ops it streams, IDs cloned, up to any
// error it returns.
func streamOps(dir string) (*Log, []Op, error) {
	var ops []Op
	l, _, err := Open(dir, Options{Fsync: FsyncNever}, func(o Op) {
		o.ID = strings.Clone(o.ID)
		ops = append(ops, o)
	})
	return l, ops, err
}

// oracleOps is recovery's op stream as recovery computed it before it
// streamed: the snapshot read whole, its CRC checked before any entry is
// decoded, each ID a string of its own; then the log read whole, record by
// record, up to the first that is short, fails its CRC, does not decode or
// does not raise the seq. Unlike Open it changes nothing on disk and does
// not tell a torn tail from corruption. ops holds what it decoded before
// any error.
func oracleOps(dir string) (ops []Op, err error) {
	snapSeq := uint64(0)
	b, err := os.ReadFile(filepath.Join(dir, snapName))
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, err
	default:
		if ops, snapSeq, err = oracleSnapshot(b); err != nil {
			return ops, err
		}
	}
	b, err = os.ReadFile(filepath.Join(dir, logName))
	if os.IsNotExist(err) {
		return ops, nil
	}
	if err != nil {
		return ops, err
	}
	if len(b) < magicLen || string(b[:magicLen]) != logMagic {
		return ops, fmt.Errorf("bad log header")
	}
	last := uint64(0)
	for rest := b[magicLen:]; len(rest) >= frameLen; {
		ln := binary.LittleEndian.Uint32(rest[0:4])
		if uint64(ln) > uint64(len(rest)-frameLen) {
			break
		}
		payload := rest[frameLen : frameLen+int(ln)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			break
		}
		seq, window, err := DecodeWindowPayload(payload, nil)
		if err != nil || seq == 0 || seq <= last {
			break
		}
		last = seq
		if seq > snapSeq {
			ops = append(ops, window...)
		}
		rest = rest[frameLen+int(ln):]
	}
	return ops, nil
}

// oracleSnapshot decodes a whole snapshot file into its entries, as Sets.
func oracleSnapshot(b []byte) (ops []Op, seq uint64, err error) {
	if len(b) < magicLen+4 || string(b[:magicLen]) != snapMagic {
		return nil, 0, fmt.Errorf("bad snapshot header")
	}
	body, trailer := b[magicLen:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, 0, fmt.Errorf("snapshot checksum mismatch")
	}
	var head [3]uint64 // term, seq, count
	for i := range head {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, 0, fmt.Errorf("truncated snapshot header field %d", i)
		}
		head[i], body = v, body[n:]
	}
	for i := uint64(0); i < head[2]; i++ {
		id, n, err := decodeID(body, false)
		if err != nil {
			return ops, 0, err
		}
		body = body[n:]
		o := Op{ID: id}
		for d := range o.P {
			v, n := binary.Varint(body)
			if n <= 0 {
				return ops, 0, fmt.Errorf("entry %d: truncated coordinate", i)
			}
			o.P[d], body = v, body[n:]
		}
		ops = append(ops, o)
	}
	if len(body) != 0 {
		return ops, 0, fmt.Errorf("%d trailing bytes", len(body))
	}
	return ops, head[1], nil
}
