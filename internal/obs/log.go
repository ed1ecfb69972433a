package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// This file is the structured-logging face of the observability layer:
// every daemon builds one *slog.Logger from its -log-level/-log-format
// flags and threads it through service, dispatcher, server, and
// journal, attaching correlated fields (campaign, conn, chunk) at each
// layer. Like the rest of the package the loggers are optional: code
// that receives no logger logs through OrNop's discarding logger, whose
// handler reports every level disabled, so a silent run pays one
// Enabled check per call site.

// discardHandler is a slog.Handler that drops everything. (The stdlib
// gained slog.DiscardHandler in a Go release newer than this module's
// minimum; this is the same thing.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

var nopLogger = slog.New(discardHandler{})

// OrNop returns l, or the discarding logger when l is nil, so callees
// can log unconditionally.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nopLogger
	}
	return l
}

// ParseLogLevel maps the -log-level flag values (debug, info, warn,
// error) onto slog levels.
func ParseLogLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("invalid log level %q (want debug, info, warn, or error)", s)
}

// NewLogger builds the daemons' structured logger: format is "text"
// (logfmt-style, the default) or "json" (one JSON object per line),
// level is one of debug/info/warn/error.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLogLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("invalid log format %q (want text or json)", format)
}
