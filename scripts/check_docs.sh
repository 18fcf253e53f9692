#!/usr/bin/env bash
# Documentation lint, wired into ctest as `check_docs`:
#   1. every telemetry name in src/common/telemetry_names.h (span, metric,
#      prediction-accuracy and serve-event names) is documented in the guide
#      that owns its family, per the TELEMETRY_GUIDES table below;
#   2. relative Markdown links in README.md and docs/*.md resolve;
#   3. every `src/...` path mentioned in the docs exists (supports
#      {h,cc}-style brace lists);
#   4. docs/benchmarks.md covers every bench/bench_*.cc binary;
#   5. the seven guides (api, architecture, observability, benchmarks,
#      resilience, caching, replanning) and README.md cross-link each
#      other;
#   6. docs/observability.md's "HTTP endpoint" route table covers every
#      route defined in src/serving/http_endpoint.cc;
#   7. docs/api.md covers the scheduler (src/core/runtime/fair_scheduler
#      and its shed / tenant_reject event kinds).
#
# Usage: scripts/check_docs.sh [repo_root]
set -u

ROOT="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$ROOT" || exit 1

failures=0
fail() {
  echo "check_docs: $*" >&2
  failures=$((failures + 1))
}

DOC_FILES=(README.md docs/*.md)

# --- 1. telemetry names are documented in their guides -------------------
# One row per telemetry family: <name regex> <guide> <match>. Every name
# the regex selects must appear in the guide in backticks; match `family`
# also accepts a parameterized form (`llm.calls.<type>` documents the
# per-PromptType counters `llm.calls.*`), match `exact` does not. A name
# may belong to several rows, and every row must select at least one name.
TELEMETRY_GUIDES=(
  '.                                                docs/observability.md family'
  '^(llm\.fault\.|llm\.retry\.|llm\.hedge\.|breaker\.) docs/resilience.md    family'
  '^llm\.cache\.                                     docs/caching.md       exact'
  '^(plan\.reoptimize\.|exec\.replan$)               docs/replanning.md    exact'
  '^(serve\.slo\.|serve\.uptime_seconds$|tenant\.)   docs/observability.md exact'
  '^serve\.sched\.                                    docs/observability.md family'
)
# Every quoted string literal in the catalog header is a telemetry name.
# Joining lines first keeps declarations that wrap onto a continuation
# line in scope.
names=$(tr '\n' ' ' < src/common/telemetry_names.h |
    grep -o 'inline constexpr char k[A-Za-z0-9]*\[\] *= *"[^"]*"' |
    sed 's/.*"\([^"]*\)"/\1/')
[[ -n "$names" ]] || fail "no names extracted from telemetry_names.h"
for row in "${TELEMETRY_GUIDES[@]}"; do
  read -r regex guide match <<< "$row"
  if [[ ! -f "$guide" ]]; then
    fail "$guide is missing"
    continue
  fi
  family=$(grep -E "$regex" <<< "$names")
  if [[ -z "$family" ]]; then
    fail "no telemetry names matching '$regex' in telemetry_names.h"
    continue
  fi
  while IFS= read -r name; do
    grep -qF "\`$name\`" "$guide" && continue
    [[ "$match" == family ]] && grep -qF "\`$name." "$guide" && continue
    fail "telemetry name '$name' is not documented in $guide"
  done <<< "$family"
done

# --- 2. relative markdown links resolve ------------------------------------
for doc in "${DOC_FILES[@]}"; do
  [[ -f "$doc" ]] || continue
  dir=$(dirname "$doc")
  # Extract (target) parts of [text](target) links.
  links=$(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
  while IFS= read -r link; do
    [[ -n "$link" ]] || continue
    case "$link" in
      http://*|https://*|\#*|mailto:*) continue ;;
    esac
    target="${link%%#*}"  # drop anchors
    [[ -n "$target" ]] || continue
    if [[ ! -e "$dir/$target" && ! -e "$target" ]]; then
      fail "$doc: broken link '$link'"
    fi
  done <<< "$links"
done

# --- 3. src/ paths mentioned in docs exist ---------------------------------
expand_braces() {
  # Expands one {a,b,...} group per path; plain paths pass through.
  local path="$1"
  if [[ "$path" == *"{"* && "$path" == *"}"* ]]; then
    local pre="${path%%\{*}" rest="${path#*\{}"
    local body="${rest%%\}*}" post="${rest#*\}}"
    local part
    IFS=',' read -ra parts <<< "$body"
    for part in "${parts[@]}"; do
      expand_braces "$pre$part$post"
    done
  else
    echo "$path"
  fi
}

for doc in "${DOC_FILES[@]}"; do
  [[ -f "$doc" ]] || continue
  paths=$(grep -o 'src/[A-Za-z0-9_./{},-]*' "$doc" | sed 's/[.,]$//' | sort -u)
  while IFS= read -r path; do
    [[ -n "$path" ]] || continue
    while IFS= read -r expanded; do
      # Directory references ("src/core/logical") and files both count.
      if [[ ! -e "$expanded" ]]; then
        fail "$doc: referenced path '$expanded' does not exist"
      fi
    done < <(expand_braces "$path")
  done <<< "$paths"
done

# --- 4. benchmarks.md covers every bench binary ----------------------------
BENCH_DOC=docs/benchmarks.md
if [[ ! -f "$BENCH_DOC" ]]; then
  fail "$BENCH_DOC is missing"
else
  for src in bench/bench_*.cc; do
    bin=$(basename "$src" .cc)
    if ! grep -q "\`$bin\`" "$BENCH_DOC"; then
      fail "$BENCH_DOC does not cover $bin"
    fi
  done
fi

# --- 5. the guides cross-link each other -----------------------------------
GUIDES=(docs/api.md docs/architecture.md docs/observability.md
        docs/benchmarks.md docs/resilience.md docs/caching.md
        docs/replanning.md README.md)
for doc in "${GUIDES[@]}"; do
  [[ -f "$doc" ]] || { fail "$doc is missing"; continue; }
  for other in "${GUIDES[@]}"; do
    [[ "$doc" == "$other" ]] && continue
    base=$(basename "$other")
    if ! grep -qF "$base" "$doc"; then
      fail "$doc does not cross-link $base"
    fi
  done
done

# --- 6. observability.md covers the HTTP routes ---------------------------
OBS=docs/observability.md
ENDPOINT_SRC=src/serving/http_endpoint.cc
if [[ ! -f "$ENDPOINT_SRC" ]]; then
  fail "$ENDPOINT_SRC is missing"
else
  routes=$(grep -o 'const char kRoute[A-Za-z0-9]*\[\] *= *"[^"]*"' \
      "$ENDPOINT_SRC" | sed 's/.*"\([^"]*\)"/\1/')
  [[ -n "$routes" ]] || fail "no kRoute* definitions in $ENDPOINT_SRC"
  while IFS= read -r route; do
    [[ -n "$route" ]] || continue
    if ! grep -qF "\`$route\`" "$OBS"; then
      fail "HTTP route '$route' is not in $OBS's route table"
    fi
  done <<< "$routes"
fi

# --- 7. api.md covers the scheduler ----------------------------------------
API_DOC=docs/api.md
if [[ ! -f "$API_DOC" ]]; then
  fail "$API_DOC is missing"
else
  grep -q 'src/core/runtime/fair_scheduler' "$API_DOC" ||
      fail "$API_DOC does not cover src/core/runtime/fair_scheduler"
  for kind in shed tenant_reject; do
    grep -qF "\`$kind\`" "$API_DOC" ||
        fail "$API_DOC does not mention the '$kind' event kind"
  done
fi

if [[ $failures -gt 0 ]]; then
  echo "check_docs: FAILED with $failures error(s)" >&2
  exit 1
fi
echo "check_docs: OK"
