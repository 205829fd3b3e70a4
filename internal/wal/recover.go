package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"os"
	"path/filepath"

	"repro/internal/geom"
)

// Recovery is Open's account of what it salvaged: the ops themselves went
// to the fold Open was given, in order.
type Recovery struct {
	// Seq is the highest recovered window sequence number (appends
	// continue from Seq+1).
	Seq uint64
	// SnapshotSeq and SnapshotObjects describe the loaded snapshot
	// (zero when none existed).
	SnapshotSeq     uint64
	SnapshotObjects int
	// Term is the leader term the snapshot journaled (zero when none
	// existed). Replication fencing
	// persists the term here so a restarted node rejoins with the term
	// it last held.
	Term uint64
	// Records is the number of valid log records read (including any
	// at or below SnapshotSeq, which are skipped as already folded).
	Records int
	// TruncatedBytes is the size of the torn or corrupt log tail that
	// was cut off, zero for a clean log. A tear is expected after a
	// crash mid-append and is not an error: everything before it is
	// CRC-intact, and under FsyncAlways nothing after it was ever
	// acknowledged.
	TruncatedBytes int64
}

// ErrSnapshotVersion is wrapped by the error Open returns for a wal.snap
// written in a snapshot format version this build does not read.
var ErrSnapshotVersion = errors.New("unsupported snapshot version")

// ioBuf is the size of the buffer recovery reads each file through and of
// the one a Log writes its snapshots through.
const ioBuf = 64 << 10

// readSnapshot streams the snapshot file's entries to fold, as Sets, if
// the file exists. It reads the file twice through one buffer: once to
// check the CRC, so that nothing unverified reaches fold, and once to
// decode. The file is rename-atomic, so any validation failure here is bit
// rot or foreign data — a hard error, never a truncation — and a
// malformed entry after others went to fold fails Open, whose caller drops
// what it folded.
func readSnapshot(path string, rec *Recovery, fold func(Op)) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if st.Size() < magicLen+4 {
		return fmt.Errorf("wal: %s: bad snapshot header", path)
	}
	br := bufio.NewReaderSize(f, ioBuf)
	var magic [magicLen]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if magic := string(magic[:]); magic != snapMagic {
		// Same family, other version digit: a real snapshot this build
		// cannot read — never a foreign file, let alone a tear.
		if family := len(snapMagic) - 2; magic[:family] == snapMagic[:family] {
			return fmt.Errorf("wal: %s: %w %q", path, ErrSnapshotVersion, magic[:family+1])
		}
		return fmt.Errorf("wal: %s: bad snapshot header", path)
	}
	body := st.Size() - magicLen - 4
	sum := uint32(0)
	for left := body; left > 0; {
		b, err := br.Peek(int(min(left, ioBuf)))
		if err != nil {
			return fmt.Errorf("wal: %s: %w", path, err)
		}
		sum = crc32.Update(sum, crc32.IEEETable, b)
		br.Discard(len(b))
		left -= int64(len(b))
	}
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return fmt.Errorf("wal: %s: %w", path, err)
	}
	if sum != binary.LittleEndian.Uint32(trailer[:]) {
		return fmt.Errorf("wal: %s: snapshot checksum mismatch", path)
	}
	if _, err := f.Seek(magicLen, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	br.Reset(f)
	d := snapDecoder{br: br, left: body}
	term, ok := d.uvarint()
	if !ok {
		return fmt.Errorf("wal: %s: truncated snapshot term", path)
	}
	rec.Term = term
	seq, ok := d.uvarint()
	if !ok {
		return fmt.Errorf("wal: %s: truncated snapshot seq", path)
	}
	count, ok := d.uvarint()
	if !ok {
		return fmt.Errorf("wal: %s: truncated snapshot count", path)
	}
	for i := uint64(0); i < count; i++ {
		if err := d.entry(fold); err != nil {
			return fmt.Errorf("wal: %s: entry %d: %w", path, i, err)
		}
	}
	if d.left != 0 {
		return fmt.Errorf("wal: %s: %d trailing bytes after %d entries", path, d.left, count)
	}
	rec.SnapshotSeq = seq
	rec.Seq = seq
	rec.SnapshotObjects = int(count)
	return nil
}

// snapDecoder decodes a snapshot body from a buffered reader; left is the
// body's unread length. An entry is decoded where it lies in the reader's
// buffer, so its ID reaches the fold as a view of that buffer; only an ID
// longer than the buffer is copied out, into id.
type snapDecoder struct {
	br   *bufio.Reader
	left int64
	id   []byte
}

// maxEntryTail bounds what follows an ID in an entry: its coordinates.
const maxEntryTail = geom.MaxDims * binary.MaxVarintLen64

// peek returns up to n buffered bytes of the body, fewer only at its end.
func (d *snapDecoder) peek(n int) []byte {
	b, _ := d.br.Peek(int(min(int64(n), d.left)))
	return b
}

func (d *snapDecoder) discard(n int) {
	d.br.Discard(n)
	d.left -= int64(n)
}

func (d *snapDecoder) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.peek(binary.MaxVarintLen64))
	if n <= 0 {
		return 0, false
	}
	d.discard(n)
	return v, true
}

// entry decodes one entry and hands it to fold as a Set. Malformed input
// is an error, never a panic.
func (d *snapDecoder) entry(fold func(Op)) error {
	ln, n := binary.Uvarint(d.peek(binary.MaxVarintLen64))
	if n <= 0 {
		return fmt.Errorf("truncated ID length")
	}
	// No ID above the record bound was ever journaled, and under it the
	// lengths below fit an int even on 32-bit platforms.
	if ln > maxRecordBytes || ln > uint64(d.left-int64(n)) {
		return fmt.Errorf("ID length %d overruns the snapshot", ln)
	}
	// skip is what precedes the coordinates and is still in the buffer.
	skip := n + int(ln)
	var id, tail []byte
	if skip+maxEntryTail <= d.br.Size() {
		b := d.peek(skip + maxEntryTail)
		if len(b) < skip {
			return fmt.Errorf("truncated ID")
		}
		id, tail = b[n:skip], b[skip:]
	} else {
		d.discard(n)
		if cap(d.id) < int(ln) {
			d.id = make([]byte, ln)
		}
		id = d.id[:ln]
		if _, err := io.ReadFull(d.br, id); err != nil {
			return err
		}
		d.left -= int64(ln)
		skip = 0
		tail = d.peek(maxEntryTail)
	}
	var p geom.Point
	used := 0
	for k := range p {
		v, w := binary.Varint(tail[used:])
		if w <= 0 {
			return fmt.Errorf("truncated coordinate")
		}
		p[k] = v
		used += w
	}
	fold(Op{ID: viewOf(id), P: p})
	d.discard(skip + used)
	return nil
}

// replayLog streams the log tail to fold, one CRC-valid record at a time
// with its IDs as views into the record buffer, and accounts for it in
// rec, creating the file when absent.
// Records must carry strictly increasing seqs; those at or below the
// snapshot seq are already folded and skipped (a crash between the
// snapshot rename and the log rotation leaves exactly that overlap).
//
// A bad record (short, CRC-mismatched, or malformed) is classified by
// what follows it: if any complete, CRC-valid, well-formed record with
// a higher seq exists later in the file, the damage cannot be a torn
// append — valid data was written after it — so this is real corruption
// and replayLog fails rather than silently dropping journaled windows.
// Otherwise it is the expected crash tear and the file is truncated
// there: recovery keeps the longest valid prefix and the log is again
// append-clean.
func replayLog(path string, rec *Recovery, fold func(Op)) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if os.IsNotExist(err) {
		nf, err := createLogFile(path)
		if err != nil {
			return err
		}
		return nf.Close()
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, 2)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	br := bufio.NewReaderSize(f, ioBuf)
	var magic [magicLen]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != logMagic {
		// The log is created and rotated rename-atomically, so a short
		// or foreign header cannot be a crash artifact of ours: refuse
		// to append over it.
		return fmt.Errorf("wal: %s: bad log header", path)
	}
	good := int64(magicLen) // offset after the last valid record
	var hdr [frameLen]byte
	var payload []byte
	var ops []Op
	lastSeq := uint64(0)
	torn := false
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				break // clean end on a record boundary
			}
			if err == io.ErrUnexpectedEOF {
				torn = true
				break
			}
			return fmt.Errorf("wal: %w", err)
		}
		ln := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		// Compare widened: on a 32-bit platform int(ln) could wrap
		// negative, slip past the bound, and panic the allocation below.
		if uint64(ln) > maxRecordBytes {
			torn = true // a garbage length prefix, not a real record
			break
		}
		if cap(payload) < int(ln) {
			payload = make([]byte, ln)
		}
		payload = payload[:ln]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				torn = true
				break
			}
			return fmt.Errorf("wal: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			torn = true
			break
		}
		seq, decoded, err := decodeWindow(payload, ops[:0], true)
		if err != nil || seq == 0 || seq <= lastSeq {
			torn = true // CRC-valid but malformed or out of order: same treatment
			break
		}
		ops = decoded
		lastSeq = seq
		rec.Records++
		if seq > rec.SnapshotSeq {
			for i := range ops {
				fold(ops[i])
			}
			rec.Seq = seq
		}
		good += int64(frameLen) + int64(ln)
	}
	if torn {
		validOff, found, err := scanForValidRecord(f, good, size, lastSeq)
		if err != nil {
			return err
		}
		if found {
			return fmt.Errorf("wal: %s: bad record at offset %d followed by a valid record at offset %d — real corruption, not a torn tail; refusing to drop journaled windows",
				path, good, validOff)
		}
		rec.TruncatedBytes = size - good
		if err := f.Truncate(good); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// scanForValidRecord reports whether any complete, CRC-valid,
// well-formed record with seq > lastSeq starts anywhere in [from, size)
// of f, trying every byte offset (a corrupted length prefix makes the
// real frame boundaries unknowable). The bad record at `from` itself can
// never match: it already failed the length, CRC, or decode check —
// and a seq-regressed record fails the seq > lastSeq bar, so a
// regression with nothing after it stays a truncation, matching replay.
// Zero-filled tails (a crash that allocated blocks without writing
// them) parse as ln=0 with a CRC that trivially matches the empty
// payload, but DecodeWindowPayload rejects the empty window, so they never
// count as valid data. The tail is read into memory: it is at most one
// partial record after a real crash, and the corruption path is a rare
// one-time startup cost.
func scanForValidRecord(f *os.File, from, size int64, lastSeq uint64) (int64, bool, error) {
	tail := make([]byte, size-from)
	if _, err := f.ReadAt(tail, from); err != nil {
		return 0, false, fmt.Errorf("wal: %w", err)
	}
	var ops []Op
	for off := 0; off+frameLen <= len(tail); off++ {
		ln := binary.LittleEndian.Uint32(tail[off : off+4])
		if uint64(ln) > maxRecordBytes || uint64(ln) > uint64(len(tail)-off-frameLen) {
			continue
		}
		payload := tail[off+frameLen : off+frameLen+int(ln)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tail[off+4:off+8]) {
			continue
		}
		seq, decoded, err := decodeWindow(payload, ops[:0], true)
		ops = decoded[:0]
		if err != nil || seq <= lastSeq {
			continue
		}
		return from + int64(off), true, nil
	}
	return 0, false, nil
}

// createLogFile creates an empty log (header only) atomically — write
// temp, fsync, rename, fsync directory — and returns a handle
// positioned to append. Rename-atomicity means wal.log, whenever it
// exists, always has a complete header.
func createLogFile(path string) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.WriteString(logMagic); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	// The handle follows the inode through the rename, so it now
	// appends to the freshly installed wal.log.
	return f, nil
}

// writeSnapshotFile streams one snapshot to path atomically, always in
// the v2 format (term before seq), through bw, which it resets onto the
// new file.
func writeSnapshotFile(path string, bw *bufio.Writer, term, seq uint64, n int, entries iter.Seq2[string, geom.Point]) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	bw.Reset(f)
	// Everything after the magic is written and checksummed together;
	// the trailer seals it.
	sum := uint32(0)
	write := func(b []byte) error {
		sum = crc32.Update(sum, crc32.IEEETable, b)
		_, err := bw.Write(b)
		return err
	}
	if _, err := bw.WriteString(snapMagic); err != nil {
		f.Close()
		return err
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, term)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(n))
	if err := write(buf); err != nil {
		f.Close()
		return err
	}
	count := 0
	werr := error(nil)
	for id, p := range entries {
		buf = appendID(buf[:0], id)
		for d := 0; d < geom.MaxDims; d++ {
			buf = binary.AppendVarint(buf, p[d])
		}
		if werr = write(buf); werr != nil {
			break
		}
		count++
	}
	if werr != nil {
		f.Close()
		return werr
	}
	if count != n {
		f.Close()
		return fmt.Errorf("wal: snapshot iterator yielded %d entries, want %d", count, n)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	if _, err := bw.Write(trailer[:]); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	bw.Reset(nil) // the Log keeps the buffer, not the file
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return nil
}
