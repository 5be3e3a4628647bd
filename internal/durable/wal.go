package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"strings"

	"isum/internal/vfs"
	"isum/internal/workload"
)

// WAL file format (DESIGN.md §14). Each segment is
//
//	header: magic "ISUMWAL1" (8) | version uint32 LE (4) | reserved (4)
//	records: [ length uint32 LE | CRC32C(payload) uint32 LE | payload ]*
//
// and each record payload is one observed batch:
//
//	uvarint lsn | uvarint count | count × query
//	query: uvarint id | uvarint len | text bytes | cost bits LE | weight bits LE
//
// Segments are named wal-<firstLSN hex16>.log so a directory listing
// orders them by position in the log; rotation closes the current
// segment once it crosses SegmentBytes and starts the next at the
// following LSN. The CRC is the corruption oracle: recovery stops at the
// first record whose frame, checksum, LSN sequence, or SQL payload fails
// to validate, keeping the last-good prefix (never a panic).
const (
	walMagic      = "ISUMWAL1"
	snapMagic     = "ISUMSNP1"
	formatVersion = 1
	headerSize    = 16
	frameSize     = 8
	// maxRecordBytes bounds a record frame so a corrupt length field
	// cannot drive a giant allocation.
	maxRecordBytes = 1 << 28
)

// castagnoli is the CRC32C table (the WAL/snapshot checksum polynomial).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks any frame-level validation failure during a segment
// scan: torn/truncated tails, checksum mismatches, impossible lengths,
// LSN sequence breaks, undecodable payloads. It is a recovery signal
// (stop at last-good), never surfaced to callers.
var errCorrupt = errors.New("durable: corrupt record")

// segName returns the segment file name for a first-LSN.
func segName(firstLSN uint64) string { return fmt.Sprintf("wal-%016x.log", firstLSN) }

// parseSegName extracts the first-LSN from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// fileHeader returns the 16-byte segment/snapshot header for a magic.
func fileHeader(magic string) []byte {
	h := make([]byte, 0, headerSize)
	h = append(h, magic...)
	h = binary.LittleEndian.AppendUint32(h, formatVersion)
	h = binary.LittleEndian.AppendUint32(h, 0)
	return h
}

// checkHeader validates a 16-byte header against a magic.
func checkHeader(h []byte, magic string) error {
	if len(h) < headerSize || string(h[:8]) != magic {
		return fmt.Errorf("durable: bad magic (want %s)", magic)
	}
	if v := binary.LittleEndian.Uint32(h[8:12]); v != formatVersion {
		return fmt.Errorf("durable: format version %d (want %d)", v, formatVersion)
	}
	return nil
}

// appendQuery encodes one query into buf.
func appendQuery(buf []byte, id int, text string, cost, weight float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(text)))
	buf = append(buf, text...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cost))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(weight))
	return buf
}

// byteCursor decodes the uvarint/fixed64 stream of record and snapshot
// payloads, failing softly (corrupt flag, no panics) on truncation.
type byteCursor struct {
	b   []byte
	off int
	bad bool
}

func (c *byteCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.off += n
	return v
}

func (c *byteCursor) bytes(n uint64) []byte {
	if c.bad || n > uint64(len(c.b)-c.off) {
		c.bad = true
		return nil
	}
	out := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return out
}

// count reads an element count and rejects one the rest of the payload
// cannot hold at minBytes per element, so a corrupt count never sizes an
// allocation.
func (c *byteCursor) count(minBytes int) uint64 {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.b)-c.off)/uint64(minBytes) {
		c.bad = true
		return 0
	}
	return n
}

func (c *byteCursor) fixed64() uint64 {
	if c.bad || len(c.b)-c.off < 8 {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// queryRec is the decoded form of one persisted query.
type queryRec struct {
	id     int
	text   string
	cost   float64
	weight float64
}

// minQueryBytes is the shortest encoding of one query: a one-byte ID,
// a one-byte (empty) text length, and the fixed64 cost and weight.
const minQueryBytes = 1 + 1 + 8 + 8

// readQuery decodes one query from the cursor.
func readQuery(c *byteCursor) queryRec {
	id := c.uvarint()
	text := string(c.bytes(c.uvarint()))
	cost := math.Float64frombits(c.fixed64())
	weight := math.Float64frombits(c.fixed64())
	return queryRec{id: int(id), text: text, cost: cost, weight: weight}
}

// encodeBatch builds one WAL record payload for a batch at lsn.
func encodeBatch(lsn uint64, batch []*workload.Query) []byte {
	buf := make([]byte, 0, 64+32*len(batch))
	buf = binary.AppendUvarint(buf, lsn)
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	for _, q := range batch {
		buf = appendQuery(buf, q.ID, q.Text, q.Cost, q.Weight)
	}
	return buf
}

// decodeBatch parses a WAL record payload. A short or over-long payload
// returns errCorrupt: the CRC already matched, so this only fires on
// encoder/decoder version skew or a checksum collision — either way the
// record is unusable and recovery must stop at the previous one.
func decodeBatch(payload []byte) (lsn uint64, queries []queryRec, err error) {
	c := &byteCursor{b: payload}
	lsn = c.uvarint()
	n := c.count(minQueryBytes)
	if c.bad {
		return 0, nil, errCorrupt
	}
	queries = make([]queryRec, 0, n)
	for i := uint64(0); i < n; i++ {
		q := readQuery(c)
		if c.bad {
			return 0, nil, errCorrupt
		}
		queries = append(queries, q)
	}
	if c.off != len(payload) {
		return 0, nil, errCorrupt
	}
	return lsn, queries, nil
}

// walWriter appends framed records to the current segment, rotating at
// SegmentBytes. One writer per store; the store serialises access.
type walWriter struct {
	fs      vfs.FS
	dir     string
	policy  SyncPolicy
	segSize int64

	f       vfs.File
	name    string
	size    int64
	nextLSN uint64
	scratch []byte
	// failed poisons the writer after any append error: the failed
	// record's bytes may or may not have reached the file, so reusing or
	// skipping its LSN would fork the in-memory state from what replay
	// will reconstruct. The only safe continuation is a fresh Open, which
	// converges on the log's actual contents.
	failed error

	rotations *counterHandle
}

// counterHandle decouples wal.go from the telemetry struct (nil-safe).
type counterHandle struct{ inc func() }

func (c *counterHandle) Inc() {
	if c != nil && c.inc != nil {
		c.inc()
	}
}

// openWalWriter starts a fresh segment whose first record will be
// nextLSN. A new segment per process lifetime keeps append-only
// semantics simple: a crashed writer's torn tail is repaired on the next
// Open, never overwritten in place.
func openWalWriter(fs vfs.FS, dir string, nextLSN uint64, policy SyncPolicy, segSize int64, rotations *counterHandle) (*walWriter, error) {
	w := &walWriter{fs: fs, dir: dir, policy: policy, segSize: segSize, nextLSN: nextLSN, rotations: rotations}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *walWriter) openSegment() error {
	name := filepath.Join(w.dir, segName(w.nextLSN))
	f, err := w.fs.Create(name)
	if err != nil {
		return fmt.Errorf("durable: creating segment: %w", err)
	}
	if _, err := f.Write(fileHeader(walMagic)); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: writing segment header: %w", err)
	}
	w.f, w.name, w.size = f, name, headerSize
	w.rotations.Inc()
	if err := w.fs.SyncDir(w.dir); err != nil {
		return fmt.Errorf("durable: syncing dir: %w", err)
	}
	return nil
}

// append frames and writes one batch record, advancing the LSN only on
// full success. The frame and payload go down in a single Write so an
// injected short write tears the record exactly as a crashed kernel
// would. Returns the LSN the record was assigned.
func (w *walWriter) append(batch []*workload.Query) (uint64, error) {
	if w.failed != nil {
		return 0, fmt.Errorf("durable: WAL writer poisoned by earlier append failure (reopen the store to recover): %w", w.failed)
	}
	lsn := w.nextLSN
	payload := encodeBatch(lsn, batch)
	rec := w.scratch[:0]
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, castagnoli))
	rec = append(rec, payload...)
	w.scratch = rec[:0]

	if w.size > headerSize && w.size+int64(len(rec)) > w.segSize {
		if err := w.rotate(); err != nil {
			w.failed = err
			return 0, err
		}
	}
	if _, err := w.f.Write(rec); err != nil {
		w.failed = err
		return 0, fmt.Errorf("durable: appending record %d: %w", lsn, err)
	}
	w.size += int64(len(rec))
	if w.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			// A failed fsync leaves the page-cache state unknowable
			// (fsyncgate): the record may or may not survive a crash, so
			// its LSN can be neither reused nor skipped.
			w.failed = err
			return 0, fmt.Errorf("durable: fsync after record %d: %w", lsn, err)
		}
	}
	w.nextLSN++
	return lsn, nil
}

// rotate seals the current segment (fsync unless SyncNever) and opens
// the next one.
func (w *walWriter) rotate() error {
	if w.policy != SyncNever {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: fsync at rotation: %w", err)
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: closing segment: %w", err)
	}
	return w.openSegment()
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	var firstErr error
	if w.policy != SyncNever {
		firstErr = w.f.Sync()
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	w.f = nil
	return firstErr
}

// segRecord is one validated record yielded by a segment scan.
type segRecord struct {
	lsn     uint64
	queries []queryRec
	// end is the byte offset just past this record in the segment.
	end int64
}

// scanSegment reads a segment and streams validated records to fn until
// the segment ends, a record fails validation, or fn returns false. It
// returns the offset just past the last valid record (headerSize for a
// segment with none), whether the scan stopped on a corrupt/torn record,
// and an error only for I/O failures on the underlying vfs.FS — corruption
// is a result, not an error.
func scanSegment(fs vfs.FS, name string, fn func(segRecord) bool) (good int64, corrupt bool, err error) {
	rc, err := fs.Open(name)
	if err != nil {
		return 0, false, err
	}
	defer rc.Close()
	br := bufio.NewReaderSize(rc, 1<<16)

	header := make([]byte, headerSize)
	if _, err := io.ReadFull(br, header); err != nil {
		// Too short to even hold a header: treat as a torn creat.
		return 0, true, nil
	}
	if checkHeader(header, walMagic) != nil {
		return 0, true, nil
	}
	good = headerSize
	frame := make([]byte, frameSize)
	for {
		if _, err := io.ReadFull(br, frame); err != nil {
			if errors.Is(err, io.EOF) {
				return good, false, nil // clean end of segment
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return good, true, nil // torn frame
			}
			return good, false, err
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length == 0 || length > maxRecordBytes {
			return good, true, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return good, true, nil // torn payload
			}
			return good, false, err
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return good, true, nil // bit rot or torn overwrite
		}
		lsn, queries, derr := decodeBatch(payload)
		if derr != nil {
			return good, true, nil
		}
		// good advances only once fn accepts the record: a rejected record
		// (LSN sequence break, unusable payload) must stay beyond the
		// good offset so tail repair truncates it rather than entombing
		// it in front of future appends.
		end := good + frameSize + int64(length)
		if !fn(segRecord{lsn: lsn, queries: queries, end: end}) {
			return good, false, nil
		}
		good = end
	}
}
