package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
)

// wal is a redo-only write-ahead log. Records:
//
//	lsn(8) op(1) klen(4) vlen(4) key val crc(4)
//
// op: 1 = put, 2 = delete, 3 = commit (klen/vlen zero).
// On recovery, records after the checkpoint LSN are replayed in order;
// a torn tail (bad CRC / short read) truncates the log at that point.
// Group commit: Sync() batches are controlled by the store's SyncPolicy.
type wal struct {
	f   *os.File
	w   *bufio.Writer
	lsn uint64
	// bytes counts every byte appended in this life (Stats.WALBytes); read
	// without the store lock, hence atomic.
	bytes atomic.Uint64
}

const (
	walPut    = 1
	walDelete = 2
	walCommit = 3
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (w *wal) append(op byte, key, val []byte) error {
	w.lsn++
	var hdr [17]byte
	binary.LittleEndian.PutUint64(hdr[0:], w.lsn)
	hdr[8] = op
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(val)))
	crc := crc32.New(crcTable)
	crc.Write(hdr[:])
	crc.Write(key)
	crc.Write(val)
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(key); err != nil {
		return err
	}
	if _, err := w.w.Write(val); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.w.Write(sum[:])
	w.bytes.Add(uint64(len(hdr) + len(key) + len(val) + len(sum)))
	return err
}

func (w *wal) sync() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *wal) flush() error { return w.w.Flush() }

// truncate resets the log after a checkpoint has made its contents redundant.
func (w *wal) truncate() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.w.Reset(w.f)
	return nil
}

func (w *wal) close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// walRecord is one decoded log record.
type walRecord struct {
	lsn uint64
	op  byte
	key []byte
	val []byte
}

// replay streams records with lsn > afterLSN to fn, stopping cleanly at a
// torn tail. Returns the highest LSN seen.
func replayWAL(path string, afterLSN uint64, fn func(walRecord) error) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return afterLSN, nil
		}
		return afterLSN, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	maxLSN := afterLSN
	for {
		var hdr [17]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return maxLSN, nil // clean EOF or torn header: stop
		}
		lsn := binary.LittleEndian.Uint64(hdr[0:])
		op := hdr[8]
		klen := binary.LittleEndian.Uint32(hdr[9:])
		vlen := binary.LittleEndian.Uint32(hdr[13:])
		if klen > PageSize || vlen > PageSize || op == 0 || op > walCommit {
			return maxLSN, nil // corrupt tail
		}
		buf := make([]byte, int(klen)+int(vlen)+4)
		if _, err := io.ReadFull(r, buf); err != nil {
			return maxLSN, nil
		}
		crc := crc32.New(crcTable)
		crc.Write(hdr[:])
		crc.Write(buf[:klen+vlen])
		if crc.Sum32() != binary.LittleEndian.Uint32(buf[klen+vlen:]) {
			return maxLSN, nil // torn record
		}
		if lsn > maxLSN {
			maxLSN = lsn
		}
		if lsn <= afterLSN {
			continue // already checkpointed
		}
		rec := walRecord{lsn: lsn, op: op, key: buf[:klen], val: buf[klen : klen+vlen]}
		if err := fn(rec); err != nil {
			return maxLSN, err
		}
	}
}
