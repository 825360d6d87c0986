package proto

// Per-frame CRC32C trailers (protocol v2, FeatCRC). After the HELLO
// exchange, every frame in both directions carries a 4-byte trailer:
//
//	uint32  body length (big endian)     ─┐
//	...     body                          ├─ covered by the checksum
//	uint32  crc32c(length prefix ‖ body) ─┘  NOT counted in the length
//
// Covering the length prefix matters: a flipped length bit would otherwise
// silently re-delimit the stream into plausible frames; with it covered,
// the misaligned trailer fails verification instead. The trailer is not
// counted in the length prefix, so the framing functions above are
// untouched — sealing and verification compose around them. CRC32C is the
// Castagnoli polynomial, which hash/crc32 computes with the SSE4.2/ARMv8
// instruction where available, so the per-frame cost is a few ns/KB.
//
// The HELLO request and response themselves are always unsealed (the
// feature is not agreed yet while they are in flight); the window this
// leaves open is discussed in DESIGN.md §9.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// TrailerLen is the size of the CRC32C frame trailer.
const TrailerLen = 4

// ErrChecksum is the error of a frame whose CRC32C trailer does not match
// its contents. Match with errors.Is.
var ErrChecksum = errors.New("proto: frame checksum mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C computes the Castagnoli CRC of data — the same polynomial (and
// therefore the same SSE4.2/ARMv8 fast path) the frame trailers use. It is
// exported for the other on-disk/on-wire integrity checks in this module
// (the WAL's per-record checksums), so every checksum in the system agrees
// on one algorithm.
func CRC32C(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// CRC32CUpdate extends an existing CRC32C with more data, for checksums
// computed over discontiguous spans (header ‖ payload).
func CRC32CUpdate(crc uint32, data []byte) uint32 { return crc32.Update(crc, castagnoli, data) }

// SealFrame appends the CRC32C trailer to the frame occupying dst[start:]
// (one complete frame as produced by AppendRequest/AppendResponse) and
// returns the extended slice.
func SealFrame(dst []byte, start int) []byte {
	return appendU32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// ReadTrailer reads and verifies the CRC32C trailer that follows an n-byte
// body obtained via ReadHeader+ReadBody. The length prefix is reconstructed
// from n, so the server's two-deadline header/body read split needs no
// change to be checksummed.
//
//dytis:blocks
func ReadTrailer(r io.Reader, n int, body []byte) error {
	got, err := readU32(r)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if want := crc32.Update(crcOfLen(uint32(n)), castagnoli, body); got != want {
		return fmt.Errorf("%w: trailer %08x, computed %08x over %d-byte body", ErrChecksum, got, want, n)
	}
	return nil
}

// crcOfLen is CRC32C over a frame's 4-byte big-endian length prefix, run
// byte by byte over the table: handing crc32 a 4-byte array would move the
// array to the heap on every frame.
func crcOfLen(n uint32) uint32 {
	crc := ^uint32(0)
	for shift := 24; shift >= 0; shift -= 8 {
		crc = castagnoli[byte(crc)^byte(n>>shift)] ^ crc>>8
	}
	return ^crc
}

// ReadFrameCRC reads one sealed frame from r into buf (grown as needed),
// verifying its trailer, and returns the body slice, which aliases buf. It
// is ReadFrame, then ReadTrailer.
//
//dytis:blocks
func ReadFrameCRC(r io.Reader, buf []byte) ([]byte, []byte, error) {
	body, buf, err := ReadFrame(r, buf)
	if err == nil {
		err = ReadTrailer(r, len(body), body)
	}
	if err != nil {
		return nil, buf, err
	}
	return body, buf, nil
}
