package snapshot

const FormatVersion = formatVersion
