package snapshot

import "hash/crc32"

const FormatVersion = formatVersion

var SplitSealed = splitSealed

// Checksum is the envelope's CRC of payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }
