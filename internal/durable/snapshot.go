package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strconv"
	"strings"

	"isum/internal/features"
	"isum/internal/vfs"
	"isum/internal/workload"
)

// Snapshot file format (DESIGN.md §14):
//
//	magic "ISUMSNP1" (8) | version uint32 LE (4) | reserved (4)
//	payload length uint32 LE | CRC32C(payload) uint32 LE | payload
//
// payload:
//
//	uvarint lsn | uvarint seen
//	uvarint nkeys | nkeys × (uvarint len | key bytes)      — interner, ID order
//	uvarint npool | npool × query                          — accumulated weights
//
// Snapshots are named snap-<lsn hex16>.snap for the last WAL record they
// cover, written to a .tmp sibling, fsynced, and renamed into place, so
// a snapshot either exists completely or not at all. The whole payload
// is checksummed: recovery falls back to the next-older snapshot (and
// ultimately to a full WAL replay from LSN 0) when validation fails.

// snapState is the decoded compression state a snapshot carries.
type snapState struct {
	lsn  uint64
	seen uint64
	keys []string
	pool []queryRec
}

func snapName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// encodeSnapshot serialises the state carried by a snapshot: the LSN it
// covers, the observed-query count, the interner dictionary in exact ID
// order, and the pool queries with their accumulated weights.
func encodeSnapshot(lsn uint64, seen int, in *features.Interner, pool *workload.Workload) []byte {
	buf := make([]byte, 0, 1<<12)
	buf = binary.AppendUvarint(buf, lsn)
	buf = binary.AppendUvarint(buf, uint64(seen))
	n := 0
	if in != nil {
		n = in.Len()
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for id := 0; id < n; id++ {
		k := in.Key(uint32(id))
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	var queries []*workload.Query
	if pool != nil {
		queries = pool.Queries
	}
	buf = binary.AppendUvarint(buf, uint64(len(queries)))
	for _, q := range queries {
		buf = appendQuery(buf, q.ID, q.Text, q.Cost, q.Weight)
	}
	return buf
}

// decodeSnapshot parses a snapshot payload; any truncation, trailing
// garbage, or impossible count yields errCorrupt, never a panic.
func decodeSnapshot(payload []byte) (*snapState, error) {
	c := &byteCursor{b: payload}
	st := &snapState{}
	st.lsn = c.uvarint()
	st.seen = c.uvarint()
	nkeys := c.count(1) // a key is at least its length byte
	if c.bad {
		return nil, errCorrupt
	}
	st.keys = make([]string, 0, nkeys)
	for i := uint64(0); i < nkeys; i++ {
		k := string(c.bytes(c.uvarint()))
		if c.bad {
			return nil, errCorrupt
		}
		st.keys = append(st.keys, k)
	}
	npool := c.count(minQueryBytes)
	if c.bad {
		return nil, errCorrupt
	}
	st.pool = make([]queryRec, 0, npool)
	for i := uint64(0); i < npool; i++ {
		q := readQuery(c)
		if c.bad {
			return nil, errCorrupt
		}
		st.pool = append(st.pool, q)
	}
	if c.off != len(payload) {
		return nil, errCorrupt
	}
	return st, nil
}

// writeSnapshot persists a snapshot atomically: full content to a .tmp
// file, fsync, close, rename into place, directory sync. On any error
// the .tmp is removed and no snapshot is visible.
func writeSnapshot(fs vfs.FS, dir string, payload []byte) (name string, err error) {
	st, derr := decodeSnapshot(payload)
	if derr != nil {
		return "", fmt.Errorf("durable: refusing to write undecodable snapshot: %w", derr)
	}
	name = snapName(st.lsn)
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("durable: creating snapshot: %w", err)
	}
	cleanup := func(e error) (string, error) {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return "", e
	}
	buf := fileHeader(snapMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	buf = append(buf, payload...)
	if _, err := f.Write(buf); err != nil {
		return cleanup(fmt.Errorf("durable: writing snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("durable: fsyncing snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		_ = fs.Remove(tmp)
		return "", fmt.Errorf("durable: closing snapshot: %w", err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return "", fmt.Errorf("durable: publishing snapshot: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return "", fmt.Errorf("durable: syncing dir after snapshot: %w", err)
	}
	return name, nil
}

// readSnapshot loads and validates one snapshot file; corruption in any
// form (bad magic, short file, checksum mismatch, undecodable payload,
// LSN disagreeing with the file name) returns errCorrupt.
func readSnapshot(fs vfs.FS, dir, name string) (*snapState, error) {
	wantLSN, ok := parseSnapName(name)
	if !ok {
		return nil, errCorrupt
	}
	rc, err := fs.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	data, err := io.ReadAll(io.LimitReader(rc, maxRecordBytes+headerSize+frameSize+1))
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize+frameSize {
		return nil, errCorrupt
	}
	if checkHeader(data[:headerSize], snapMagic) != nil {
		return nil, errCorrupt
	}
	length := binary.LittleEndian.Uint32(data[headerSize : headerSize+4])
	sum := binary.LittleEndian.Uint32(data[headerSize+4 : headerSize+8])
	payload := data[headerSize+frameSize:]
	if uint32(len(payload)) != length {
		return nil, errCorrupt
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, errCorrupt
	}
	st, derr := decodeSnapshot(payload)
	if derr != nil {
		return nil, errCorrupt
	}
	if st.lsn != wantLSN {
		return nil, errCorrupt
	}
	return st, nil
}
