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

// NewDeterministicLogger returns a logger whose output is byte-stable
// across runs: same handler as NewLogger but with the time attribute
// dropped. Tests golden-pin log output through this.
func NewDeterministicLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: slog.LevelInfo,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}
