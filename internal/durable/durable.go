// Package durable is the crash-safety layer under the leased daemon: a
// write-ahead journal plus a snapshot file, both integrity-checked, living
// together in one data directory.
//
// The contract is deliberately narrow — the store moves opaque byte
// payloads to disk and back; the daemon owns their meaning:
//
//   - Append writes one length-prefixed, CRC32-checked record to the
//     journal. Records are replayed in append order on the next Open.
//   - Checkpoint atomically replaces the snapshot (tmp + rename) and resets
//     the journal, so recovery cost stays bounded by the snapshot cadence.
//     CheckpointStream is the same for a payload produced in pieces, which
//     is how the daemon writes its multi-megabyte shard state without ever
//     holding it whole.
//   - Open reads the snapshot (if any), replays the journal's intact
//     prefix, and truncates any torn tail left by a crash mid-write.
//
// Crash consistency is epoch-based: every checkpoint bumps an epoch that is
// stamped into both the snapshot and the journal header. A crash between
// "snapshot renamed" and "journal reset" leaves a journal whose header
// carries the previous epoch; Open detects the mismatch and discards those
// already-snapshotted records instead of replaying them twice.
//
// Durability granularity: writes reach the kernel on every Append, so the
// journal survives process death (SIGKILL) unconditionally. Surviving a
// whole-machine crash additionally needs fsync-per-append, which Open's
// fsync flag enables at an obvious throughput cost.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"
)

const (
	journalName  = "journal.log"
	snapshotName = "snapshot.bin"

	// journalMagic / snapshotMagic head their files; a wrong magic means
	// the directory holds something that is not ours, which is an error,
	// not a torn write.
	journalMagic  = "LEASEDJ1"
	snapshotMagic = "LEASEDS1"

	// headerLen is magic + little-endian uint64 epoch.
	headerLen = 8 + 8

	// snapshotHeaderLen adds the payload's uint32 length and CRC32, which
	// is why a snapshot payload is capped at maxSnapshotLen.
	snapshotHeaderLen = headerLen + 8
	maxSnapshotLen    = math.MaxUint32

	// maxRecordLen rejects absurd lengths during scan: a length field that
	// large is certainly a torn or corrupt frame, not a record.
	maxRecordLen = 16 << 20

	// flagBatch marks a frame whose payload holds multiple records packed
	// as [u32 count][u32 len, bytes]... — the daemon's batch endpoint
	// journals one shard group per frame so the group commits atomically
	// (the frame CRC covers the whole payload; a torn tail drops the whole
	// group, never a prefix of it). The flag rides in the high bit of the
	// length word, far above maxRecordLen, so plain frames can never alias
	// it.
	flagBatch = 1 << 31
)

// EpochBand partitions the epoch space into leadership generations for the
// replication layer: a store serving cluster epoch g checkpoints at epochs in
// [g*EpochBand, (g+1)*EpochBand), so every epoch a newly promoted primary
// writes exceeds every epoch any fenced predecessor could have written (a
// generation would need 2^20 checkpoints to overflow its band — weeks of
// uptime at any sane cadence). That makes the existing stale-epoch discard in
// Open double as cluster fencing: a stale ex-primary's journal records carry
// a lower-band epoch and are dropped the moment it adopts a newer snapshot.
// Standalone stores run in band 0 and never notice.
const EpochBand = 1 << 20

// Store is an open data directory. It is not safe for concurrent use; the
// daemon serializes all access under its clock mutex, which is exactly the
// ordering the journal wants (log order = clock order).
type Store struct {
	dir   string
	fsync bool

	journal *os.File
	epoch   uint64
	since   int // records appended since the last checkpoint

	appended  int64
	snapshots int64

	stale       int   // stale-epoch records discarded at Open
	truncated   int64 // torn-tail bytes cut at Open
	dirSyncErrs int64 // failed directory fsyncs after snapshot rename

	snapshotBytes int64 // size of the snapshot file on disk (0: none yet)
	maxSnapshot   int64 // maxSnapshotLen; a field so a test can reach the limit

	frame []byte // reused frame-assembly buffer: header + payload, one write
}

// Stats is a point-in-time view of the store's activity, for /metrics. The
// recovery anomalies (stale records, truncated bytes) are recorded once at
// Open and carried forward so scrapers that attach after boot still see
// them; dir-sync errors accumulate over the store's lifetime.
type Stats struct {
	Epoch          uint64 `json:"epoch"`
	AppendedTotal  int64  `json:"appended_total"`
	SinceSnapshot  int    `json:"since_snapshot"`
	SnapshotsTotal int64  `json:"snapshots_total"`
	StaleRecords   int    `json:"stale_records"`
	TruncatedBytes int64  `json:"truncated_bytes"`
	DirSyncErrors  int64  `json:"dir_sync_errors"`
	SnapshotBytes  int64  `json:"snapshot_bytes"`
}

// OpenResult is what recovery has to work with: the latest snapshot (nil if
// none was ever written) and the journal records appended after it, in
// order, with torn-tail and stale-epoch accounting.
type OpenResult struct {
	Snapshot []byte
	Records  [][]byte
	// TruncatedBytes is how much torn tail Open cut off the journal.
	TruncatedBytes int64
	// StaleRecords counts journal records discarded because their epoch
	// predates the snapshot (a crash landed between snapshot and journal
	// reset; their effects are already inside the snapshot).
	StaleRecords int
}

// Open opens (creating if needed) the data directory, loads the snapshot,
// scans the journal's intact prefix, and truncates any torn tail so the
// store is immediately appendable.
func Open(dir string, fsync bool) (*Store, OpenResult, error) {
	var res OpenResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, res, fmt.Errorf("durable: %w", err)
	}
	s := &Store{dir: dir, fsync: fsync, maxSnapshot: maxSnapshotLen}

	snapEpoch, snap, err := readSnapshot(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, res, err
	}
	res.Snapshot = snap
	s.epoch = snapEpoch
	if snap != nil {
		s.snapshotBytes = snapshotHeaderLen + int64(len(snap))
	}

	jpath := filepath.Join(dir, journalName)
	f, err := os.OpenFile(jpath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, res, fmt.Errorf("durable: %w", err)
	}
	s.journal = f

	jEpoch, records, goodLen, total, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, res, err
	}
	switch {
	case total == 0:
		// Fresh journal: stamp the current epoch.
		if err := s.resetJournal(); err != nil {
			f.Close()
			return nil, res, err
		}
	case jEpoch != snapEpoch:
		// The journal predates the snapshot (crash between snapshot rename
		// and journal reset): every record in it is already part of the
		// snapshot. Discard them all.
		res.StaleRecords = len(records)
		if err := s.resetJournal(); err != nil {
			f.Close()
			return nil, res, err
		}
	default:
		res.Records = records
		s.since = len(records)
		if goodLen < total {
			res.TruncatedBytes = total - goodLen
			if err := f.Truncate(goodLen); err != nil {
				f.Close()
				return nil, res, fmt.Errorf("durable: truncating torn tail: %w", err)
			}
		}
		if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
			f.Close()
			return nil, res, fmt.Errorf("durable: %w", err)
		}
	}
	s.stale = res.StaleRecords
	s.truncated = res.TruncatedBytes
	return s, res, nil
}

// ReadSnapshot returns the verified payload of dir's snapshot (nil if none
// was ever written) without opening, creating or repairing anything — for
// read-only tools that must leave a data directory as they found it.
func ReadSnapshot(dir string) ([]byte, error) {
	_, payload, err := readSnapshot(filepath.Join(dir, snapshotName))
	return payload, err
}

// ReadJournal returns the records a later Open of dir would replay — the
// journal's intact prefix, batch frames flattened, nil when the journal is
// missing, empty or stale against the snapshot's epoch — with ReadSnapshot's
// guarantee: nothing is created, truncated, reset or repaired.
func ReadJournal(dir string) ([][]byte, error) {
	f, err := os.Open(filepath.Join(dir, journalName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	jEpoch, records, _, _, err := scanJournal(f)
	if err != nil {
		return nil, err
	}
	snapEpoch, _, err := readSnapshot(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, err
	}
	if jEpoch != snapEpoch {
		return nil, nil
	}
	return records, nil
}

// readSnapshot loads and verifies the snapshot file. A missing file is a
// clean first boot; a corrupt one is an error (the tmp+rename protocol
// never leaves a torn snapshot behind, so corruption means external damage
// the operator must look at rather than silently losing state).
func readSnapshot(path string) (uint64, []byte, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, fmt.Errorf("durable: %w", err)
	}
	if len(b) < snapshotHeaderLen || string(b[:8]) != snapshotMagic {
		return 0, nil, fmt.Errorf("durable: %s is not a snapshot file", path)
	}
	epoch := binary.LittleEndian.Uint64(b[8:16])
	length := binary.LittleEndian.Uint32(b[16:20])
	sum := binary.LittleEndian.Uint32(b[20:24])
	payload := b[snapshotHeaderLen:]
	if uint32(len(payload)) != length || crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, fmt.Errorf("durable: snapshot %s failed its checksum", path)
	}
	return epoch, payload, nil
}

// scanJournal reads the header and every intact record, returning the
// journal's epoch, the records, the byte offset of the last intact frame,
// and the file's total length. A short, corrupt or oversized frame ends the
// scan: everything from there on is torn tail.
func scanJournal(f *os.File) (epoch uint64, records [][]byte, goodLen, total int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, 0, 0, fmt.Errorf("durable: %w", err)
	}
	total = fi.Size()
	if total == 0 {
		return 0, nil, 0, 0, nil
	}
	var hdr [headerLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		// Shorter than a header: a crash beat the very first write. Treat
		// the whole file as torn.
		return 0, nil, 0, total, nil
	}
	if string(hdr[:8]) != journalMagic {
		return 0, nil, 0, 0, fmt.Errorf("durable: %s is not a journal", f.Name())
	}
	epoch = binary.LittleEndian.Uint64(hdr[8:16])
	goodLen = headerLen

	var frame [8]byte
	for {
		if _, err := f.ReadAt(frame[:], goodLen); err != nil {
			return epoch, records, goodLen, total, nil // short frame header: torn
		}
		lenWord := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		isBatch := lenWord&flagBatch != 0
		length := lenWord &^ uint32(flagBatch)
		if length == 0 || length > maxRecordLen {
			return epoch, records, goodLen, total, nil
		}
		payload := make([]byte, length)
		if _, err := f.ReadAt(payload, goodLen+8); err != nil {
			return epoch, records, goodLen, total, nil // short payload: torn
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return epoch, records, goodLen, total, nil // corrupt payload: torn
		}
		if isBatch {
			// Flatten the group into the record stream: replay order inside
			// a frame is append order, and the frame CRC already proved the
			// whole group intact, so the records are equivalent to — and
			// atomically stronger than — the same sequence of plain frames.
			var ok bool
			if records, ok = SplitBatch(records, payload); !ok {
				return epoch, records, goodLen, total, nil // malformed group: torn
			}
		} else {
			records = append(records, payload)
		}
		goodLen += 8 + int64(length)
	}
}

// Append writes one record to the journal: a group of one. The write reaches
// the kernel before Append returns; with fsync enabled it also reaches the
// platter.
func (s *Store) Append(payload []byte) error {
	return s.AppendBatch([][]byte{payload})
}

// AppendBatch writes a group of records as one atomic journal frame: on
// the next Open either every member replays or none does, because the
// group shares a single CRC — a crash mid-write is a torn tail that drops
// the whole frame. Record accounting (Stats, SinceCheckpoint) counts
// members, not frames, so snapshot cadence is unaffected by batching. A
// group of one is a plain frame whose payload is the record itself; an
// empty group is a no-op.
//
// Header and payload are assembled in the store's reused buffer and handed
// to the kernel in a single write: a frame costs one syscall.
func (s *Store) AppendBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	packed := 4
	for _, p := range payloads {
		if len(p) == 0 || len(p) > maxRecordLen {
			return fmt.Errorf("durable: record of %d bytes", len(p))
		}
		packed += 4 + len(p)
	}
	buf := append(s.frame[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	var flag uint32
	if len(payloads) == 1 {
		buf = append(buf, payloads[0]...)
	} else {
		if packed > maxRecordLen {
			return fmt.Errorf("durable: batch frame of %d bytes", packed)
		}
		buf = PackBatch(buf, payloads)
		flag = flagBatch
	}
	s.frame = buf
	body := buf[8:]
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(body))|flag)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(body))
	// O_APPEND positioning comes from the maintained file offset (Open seeks
	// to the intact end).
	if _, err := s.journal.Write(buf); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if s.fsync {
		if err := s.journal.Sync(); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
	}
	s.since += len(payloads)
	s.appended += int64(len(payloads))
	return nil
}

// SinceCheckpoint reports how many records have been appended since the
// last checkpoint (or Open, whichever came later) — the daemon's snapshot
// cadence trigger.
func (s *Store) SinceCheckpoint() int { return s.since }

// Stats reports the store's activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Epoch:          s.epoch,
		AppendedTotal:  s.appended,
		SinceSnapshot:  s.since,
		SnapshotsTotal: s.snapshots,
		StaleRecords:   s.stale,
		TruncatedBytes: s.truncated,
		DirSyncErrors:  s.dirSyncErrs,
		SnapshotBytes:  s.snapshotBytes,
	}
}

// Epoch reports the current checkpoint epoch — the one stamped into the
// journal header and the next snapshot's predecessor.
func (s *Store) Epoch() uint64 { return s.epoch }

// Checkpoint atomically replaces the snapshot with payload and resets the
// journal. Order matters: the snapshot (carrying epoch+1) is durable before
// the journal is touched, so a crash at any instant leaves either the old
// state (snapshot N + its journal) or the new one (snapshot N+1 + an empty
// or stale-and-discardable journal).
func (s *Store) Checkpoint(payload []byte) error {
	return s.CheckpointAt(payload, s.epoch+1)
}

// CheckpointAt is Checkpoint with an explicit target epoch. The replication
// layer uses it to jump a promoted follower's store into its leadership
// generation's EpochBand, fencing any journal a stale ex-primary left behind
// (see EpochBand). The target must move the epoch forward; going backwards
// would un-fence already-discarded records.
func (s *Store) CheckpointAt(payload []byte, epoch uint64) error {
	return s.CheckpointStream(epoch, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
}

// CheckpointStream is CheckpointAt for a payload produced in pieces: write
// streams it into the snapshot file through w, which keeps the running
// length and CRC, so a multi-megabyte state never has to exist as one
// buffer. Any failure — write's own error, a payload past the header's
// 32-bit length, the disk — leaves the old snapshot and journal intact and
// no tmp file behind.
func (s *Store) CheckpointStream(epoch uint64, write func(w io.Writer) error) error {
	if epoch <= s.epoch {
		return fmt.Errorf("durable: checkpoint epoch %d does not advance current epoch %d", epoch, s.epoch)
	}
	size, err := writeSnapshot(filepath.Join(s.dir, snapshotName), epoch, s.maxSnapshot, write)
	if err != nil {
		return err
	}
	s.snapshotBytes = size
	// The rename is on disk but its directory entry may not be: fsync the
	// directory, counting — and for unsupported filesystems tolerating —
	// failure. Returning before the journal reset is crash-consistent
	// either way: new snapshot + old journal is exactly the stale-epoch
	// shape Open discards.
	if err := syncDir(s.dir); err != nil {
		s.dirSyncErrs++
		if !unsupportedSync(err) {
			return fmt.Errorf("durable: dir fsync after snapshot rename: %w", err)
		}
	}
	s.epoch = epoch
	if err := s.resetJournal(); err != nil {
		return err
	}
	s.since = 0
	s.snapshots++
	return nil
}

// snapshotSink is the io.Writer a checkpoint's payload streams through: it
// forwards to the tmp file, keeping the length and CRC the header needs and
// refusing a payload the header's 32-bit length field cannot describe (it
// would wrap silently and fail the next Open's checksum).
type snapshotSink struct {
	f   *os.File
	n   int64
	max int64
	sum uint32
}

func (w *snapshotSink) Write(p []byte) (int, error) {
	if w.n+int64(len(p)) > w.max {
		return 0, fmt.Errorf("snapshot payload exceeds the format's %d-byte limit", w.max)
	}
	w.sum = crc32.Update(w.sum, crc32.IEEETable, p)
	w.n += int64(len(p))
	return w.f.Write(p)
}

// writeSnapshot writes the framed snapshot via tmp + rename and returns the
// file's size. The header goes in last, once the streamed payload's length
// and CRC are known; until the rename the file is only ever the tmp.
func writeSnapshot(path string, epoch uint64, max int64, write func(w io.Writer) error) (size int64, err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close() // harmless if Close itself was what failed
			os.Remove(tmp)
			err = fmt.Errorf("durable: %w", err)
		}
	}()
	var hdr [snapshotHeaderLen]byte
	if _, err = f.Write(hdr[:]); err != nil {
		return 0, err
	}
	sink := &snapshotSink{f: f, max: max}
	if err = write(sink); err != nil {
		return 0, err
	}
	copy(hdr[:8], snapshotMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], epoch)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(sink.n))
	binary.LittleEndian.PutUint32(hdr[20:24], sink.sum)
	if _, err = f.WriteAt(hdr[:], 0); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return snapshotHeaderLen + sink.n, nil
}

// resetJournal truncates the journal to a fresh header carrying the current
// epoch.
func (s *Store) resetJournal() error {
	if err := s.journal.Truncate(0); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := s.journal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:8], journalMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], s.epoch)
	if _, err := s.journal.Write(hdr[:]); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if s.fsync {
		if err := s.journal.Sync(); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
	}
	s.since = 0
	return nil
}

// syncDir fsyncs a directory so a rename is durable. Errors propagate to the
// caller — a checkpoint whose directory entry never hit the platter is not
// durable, and pretending otherwise is how state evaporates on power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// unsupportedSync reports whether a directory fsync failed because the
// filesystem doesn't support the operation (tmpfs and some network mounts
// return EINVAL or ENOTSUP) rather than because the write was lost. Those
// are tolerated — counted in Stats, not fatal — since the filesystem offers
// nothing stronger.
func unsupportedSync(err error) bool {
	return errors.Is(err, syscall.EINVAL) ||
		errors.Is(err, syscall.ENOTSUP) ||
		errors.Is(err, errors.ErrUnsupported)
}

// Close syncs and closes the journal.
func (s *Store) Close() error {
	if s.journal == nil {
		return nil
	}
	err := s.journal.Sync()
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	s.journal = nil
	return err
}
