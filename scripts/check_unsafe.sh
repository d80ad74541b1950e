#!/bin/sh
# Unsafe audit: `unsafe` code under crates/*/src is allowed only where
# it earns its place —
#   crates/casu/src/sha256.rs  SHA-NI compression (CPU intrinsics)
#   crates/net/src/poller.rs   epoll/eventfd syscall bindings
# An `unsafe` block, fn, impl, trait or extern, or an
# `allow(unsafe_code)`, anywhere else fails the audit. Comment lines are
# skipped. Run from anywhere: `make unsafe-audit` / `just unsafe-audit`.
set -eu
cd "$(dirname "$0")/.."

ALLOWED='^crates/(casu/src/sha256\.rs|net/src/poller\.rs):'
PATTERN='\bunsafe[[:space:]]*(\{|$)|\bunsafe[[:space:]]+(fn|impl|trait|extern)\b|allow\([^)]*\bunsafe_code\b'

hits=$(grep -rnE --include='*.rs' "$PATTERN" crates/*/src \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    | grep -vE "$ALLOWED" || true)
if [ -n "$hits" ]; then
    echo "unsafe-audit: unsafe code outside the allowed modules:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "unsafe-audit: ok (unsafe only in crates/casu/src/sha256.rs and crates/net/src/poller.rs)"
