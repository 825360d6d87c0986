// Package protodef is a clean miniature protocol package: protocheck must
// accept it without diagnostics and export its constant tables as facts.
package protodef

// Opcode mirrors internal/proto's request/response opcode enum.
type Opcode uint8

const (
	OpInvalid Opcode = iota
	OpPing
	OpGet
	//dytis:response-only
	OpScanChunk
)

// Status mirrors the response status enum.
type Status uint8

const (
	StatusOK Status = iota
	StatusErr
)

// Frame constants, mutually consistent.
const (
	MaxFrame  = 1 << 12
	headerLen = 4
	maxBody   = MaxFrame - headerLen
	prefixLen = 9
	MaxBatch  = 64
	MaxScan   = 64
)

// Version and feature constants, mutually consistent.
const (
	Version1   = 1
	Version2   = 2
	MaxVersion = Version2

	FeatCRC    = 1
	FeatStream = 2

	AllFeatures = FeatCRC | FeatStream
)

// String covers every opcode.
func (o Opcode) String() string {
	//dytis:opswitch responses
	switch o {
	case OpPing:
		return "PING"
	case OpGet:
		return "GET"
	case OpScanChunk:
		return "SCAN_CHUNK"
	}
	return "INVALID"
}

// handle covers every request opcode; OpScanChunk is response-only and
// therefore not required here.
func handle(o Opcode) int {
	//dytis:opswitch requests
	switch o {
	case OpPing:
		return 1
	case OpGet:
		return 2
	}
	return 0
}

// statusName covers every status.
func statusName(s Status) string {
	//dytis:opswitch statuses
	switch s {
	case StatusOK:
		return "OK"
	case StatusErr:
		return "ERR"
	}
	return "?"
}

var (
	_ = handle
	_ = statusName
	_ = maxBody
	_ = prefixLen
)
