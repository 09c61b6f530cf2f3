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
// A commit is a group of put and delete records closed by a commit record.
// Recovery applies a group, in order, only once it has read the group's
// commit record, so a commit is replayed whole or not at all. A torn tail
// (bad CRC / short read) ends the log at that point, and Open cuts the file
// at the end of the last whole commit so that later appends never sit
// behind bytes recovery stops at.
// Group commit: Sync() batches are controlled by the store's SyncPolicy.
type wal struct {
	f    *os.File
	w    *bufio.Writer
	lsn  uint64
	size int64 // the file's length, buffered bytes included
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

// openWAL opens the log for appending at end, the length replayWAL
// vouched for; anything past it (an uncommitted group, a torn record) is
// cut off first.
func openWAL(path string, end int64) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open wal: %w", err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() > end {
		if err = f.Truncate(end); err == nil {
			err = f.Sync()
		}
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("kvstore: cut wal at %d: %w", end, err)
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 1<<16), size: end}, nil
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
	n := len(hdr) + len(key) + len(val) + len(sum)
	w.size += int64(n)
	w.bytes.Add(uint64(n))
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
	w.size = 0
	return nil
}

func (w *wal) close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// replayWAL streams the pairs of every commit with lsn > afterLSN to fn,
// a group at a time once its commit record has been read; a group the log
// ends inside (a crash mid-commit, a torn record) is dropped. It returns
// the highest committed LSN and the length of the log up to the end of its
// last commit record.
func replayWAL(path string, afterLSN uint64, fn func(KV) error) (maxLSN uint64, end int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return afterLSN, 0, nil
		}
		return afterLSN, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	maxLSN = afterLSN
	var group []KV
	for off := int64(0); ; {
		var hdr [17]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return maxLSN, end, nil // clean EOF or torn header: stop
		}
		lsn := binary.LittleEndian.Uint64(hdr[0:])
		op := hdr[8]
		klen := binary.LittleEndian.Uint32(hdr[9:])
		vlen := binary.LittleEndian.Uint32(hdr[13:])
		if klen > PageSize || vlen > PageSize || op == 0 || op > walCommit {
			return maxLSN, end, nil // corrupt tail
		}
		buf := make([]byte, int(klen)+int(vlen)+4)
		if _, err := io.ReadFull(r, buf); err != nil {
			return maxLSN, end, nil
		}
		crc := crc32.New(crcTable)
		crc.Write(hdr[:])
		crc.Write(buf[:klen+vlen])
		if crc.Sum32() != binary.LittleEndian.Uint32(buf[klen+vlen:]) {
			return maxLSN, end, nil // torn record
		}
		off += int64(len(hdr) + len(buf))
		if op != walCommit {
			if lsn > afterLSN { // else already checkpointed
				group = append(group, KV{Key: buf[:klen], Value: buf[klen : klen+vlen], Delete: op == walDelete})
			}
			continue
		}
		for _, kv := range group {
			if err := fn(kv); err != nil {
				return maxLSN, end, err
			}
		}
		group = group[:0]
		maxLSN, end = max(maxLSN, lsn), off
	}
}
