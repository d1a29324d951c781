// Package scenarios embeds the committed E*.json scenario files, so the
// experiments of internal/bench read their searches from the very
// documents in this directory.
package scenarios

import "embed"

// FS holds every E*.json file of this directory, by base name.
//
//go:embed E*.json
var FS embed.FS
