// Package protobad violates every protocheck rule once: a deliberately
// unhandled opcode, malformed markers, and inconsistent frame constants.
package protobad

type Opcode uint8

const (
	OpInvalid Opcode = iota
	OpPing
	OpGet
	// OpNew is handled nowhere; every opswitch below must flag it.
	OpNew
)

type Status uint8

const (
	StatusOK Status = iota
	StatusErr
)

// Frame constants that do not add up.
const (
	MaxFrame  = 1 << 12
	headerLen = 4
	prefixLen = 9
	maxBody   = MaxFrame - 8 // want `maxBody \(4088\) != MaxFrame-headerLen \(4092\)`
	MaxBatch  = 1 << 16      // want `a full MaxBatch insert batch \(1048593 bytes\) exceeds maxBody \(4088\)`
	MaxScan   = 1 << 16      // want `a full MaxScan scan response \(1048590 bytes\) exceeds maxBody \(4088\)`
)

const (
	Version1   = 1
	Version2   = 2
	MaxVersion = Version1 // want `MaxVersion \(1\) != highest Version\* constant \(2\)`

	FeatCRC    = 1
	FeatStream = 2

	AllFeatures = FeatCRC // want `AllFeatures \(0x1\) != OR of Feat\* constants \(0x3\)`
)

var (
	_ = maxBody
	_ = prefixLen
	_ = MaxVersion
	_ = AllFeatures
)

// String misses OpNew.
func (o Opcode) String() string {
	//dytis:opswitch responses
	switch o { // want `protocol switch \(responses\) does not handle OpNew`
	case OpPing:
		return "PING"
	case OpGet:
		return "GET"
	}
	return "INVALID"
}

// A default clause does not count as handling the missing opcode.
func route(o Opcode) int {
	//dytis:opswitch requests
	switch o { // want `protocol switch \(requests\) does not handle OpNew`
	case OpPing:
		return 1
	case OpGet:
		return 2
	default:
		return -1
	}
}

// A marker with a bogus set name.
func bogusSet(o Opcode) {
	//dytis:opswitch everything // want `dytis:opswitch: unknown set "everything"`
	switch o {
	case OpPing:
	}
}

// A marker with an unknown option.
func bogusOpt(o Opcode) {
	//dytis:opswitch requests grp=serve // want `dytis:opswitch: unknown option "grp=serve"`
	switch o {
	case OpPing, OpGet, OpNew:
	}
}

// A statuses marker on an Opcode switch.
func wrongType(o Opcode) {
	//dytis:opswitch statuses
	switch o { // want `dytis:opswitch statuses: switch tag type Opcode is not Status`
	case OpPing:
	}
}

// A marker on a switch with no tag expression.
func noTag(n int) int {
	//dytis:opswitch requests
	switch { // want `dytis:opswitch on a switch without a tag expression`
	case n > 0:
		return 1
	}
	return 0
}

// A marker on a switch over a non-protocol type.
func notProto(n int) {
	//dytis:opswitch requests
	switch n { // want `dytis:opswitch on a switch over int, not a protocol Opcode/Status type`
	case 1:
	}
}

// A marker attached to nothing.
func floating() {
	//dytis:opswitch requests // want `dytis:opswitch marker is not attached to a switch statement`
	_ = 1
}

var (
	_ = route
	_ = bogusSet
	_ = bogusOpt
	_ = wrongType
	_ = noTag
	_ = notProto
	_ = floating
)
