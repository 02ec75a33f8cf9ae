package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// ReadFrame reads one length-prefixed payload — the stream framing
// Sender.Send writes: a uvarint length, then the payload — reusing buf when
// it is large enough. Payloads longer than MaxFrameBytes fail without
// allocating — a garbage length field must not let a peer balloon the
// receiver. io.EOF is returned only at a clean frame boundary; a prefix
// or payload cut short mid-frame surfaces as io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := readUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame length: %w", err)
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: %w: frame length %d exceeds %d", ErrFrame, n, MaxFrameBytes)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: read frame payload: %w", err)
	}
	return buf, nil
}

// readUvarint is binary.ReadUvarint with one difference: EOF after at
// least one prefix byte is io.ErrUnexpectedEOF, so only a stream ending
// exactly on a frame boundary reads as clean EOF.
func readUvarint(r *bufio.Reader) (uint64, error) {
	var v uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("%w: length prefix overflows uint64", ErrFrame)
			}
			return v | uint64(b)<<(7*i), nil
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	return 0, fmt.Errorf("%w: length prefix overflows uint64", ErrFrame)
}
