package telemetry

import (
	"io"
	"log/slog"
)

// NewLogger returns the structured logger the CLIs write diagnostics to
// (logfmt-style key=value text on w, Info level and up). Library
// packages never log directly — isumlint's telemetry analyzer forbids
// bare fmt/os.Stderr output under internal/ — they record metrics and
// spans; binaries own the logger.
func NewLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelInfo}))
}
