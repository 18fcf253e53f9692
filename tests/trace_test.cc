#include "common/trace.h"

#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_util.h"

namespace unify {
namespace {

using testing::JsonValue;
using testing::ParseJson;

TEST(TraceTest, SpanNestingAndOrdering) {
  Trace trace;
  SpanId root = trace.StartSpan("query");
  SpanId child_a = trace.StartSpan("plan.logical", root);
  trace.EndSpan(child_a);
  SpanId child_b = trace.StartSpan("execute", root);
  SpanId grandchild = trace.StartSpan("exec.node", child_b);
  trace.EndSpan(grandchild);
  trace.EndSpan(child_b);
  trace.EndSpan(root);

  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Ids are creation-ordered indices.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, static_cast<SpanId>(i));
  }
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, root);
  EXPECT_EQ(spans[3].parent, child_b);
  // Wall intervals are well-formed and children end before their parents.
  for (const auto& s : spans) {
    EXPECT_LE(s.wall_start_us, s.wall_end_us) << s.name;
  }
  EXPECT_LE(spans[1].wall_end_us, spans[0].wall_end_us);
  EXPECT_LE(spans[3].wall_end_us, spans[2].wall_end_us);
}

TEST(TraceTest, InvalidParentBecomesRoot) {
  Trace trace;
  SpanId s = trace.StartSpan("orphan", /*parent=*/42);
  trace.EndSpan(s);
  EXPECT_EQ(trace.spans()[0].parent, kNoSpan);
}

TEST(TraceTest, AnnotationAfterEndIsKept) {
  Trace trace;
  SpanId s = trace.StartSpan("exec.node");
  trace.EndSpan(s);
  trace.AddAttr(s, "queue_wait_seconds", 1.5);
  trace.SetVirtualInterval(s, 2.0, 5.0);
  auto span = trace.spans()[0];
  EXPECT_EQ(span.virt_start, 2.0);
  EXPECT_EQ(span.virt_end, 5.0);
  ASSERT_EQ(span.attrs.size(), 1u);
  EXPECT_EQ(span.attrs[0].first, "queue_wait_seconds");
}

TEST(TraceTest, NullTraceScopedSpanIsNoop) {
  ScopedSpan span(nullptr, "query");
  EXPECT_EQ(span.id(), kNoSpan);
  span.AddAttr("key", 1.0);  // must not crash
  span.SetVirtualInterval(0, 1);
}

TEST(TraceTest, ConcurrentSpansFromManyThreads) {
  Trace trace;
  SpanId root = trace.StartSpan("query");
  constexpr int kTasks = 64;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, root, t]() {
      for (int i = t; i < kTasks; i += kThreads) {
        ScopedSpan span(&trace, "exec.node", root);
        span.AddAttr("index", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  trace.EndSpan(root);

  auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 1u + kTasks);
  std::set<SpanId> ids;
  std::set<std::string> indices;
  for (const auto& s : spans) {
    ids.insert(s.id);
    if (s.id == root) continue;
    EXPECT_EQ(s.parent, root);
    EXPECT_EQ(s.name, "exec.node");
    ASSERT_EQ(s.attrs.size(), 1u);
    indices.insert(s.attrs[0].second);
  }
  EXPECT_EQ(ids.size(), spans.size());      // unique ids
  EXPECT_EQ(indices.size(), size_t{kTasks});  // every task traced once
}

TEST(TraceTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string("nul\x01" "byte")), "nul\\u0001byte");
}

TEST(TraceTest, ChromeJsonEscapingRoundTripsSpecialStrings) {
  // Span names and attributes that exercise every escape JsonEscape()
  // emits, plus raw UTF-8 (passed through byte-for-byte).
  const std::string name = "span \"quoted\" \\back\\slash";
  const std::string attr_value = "line1\nline2\ttab\rcr \"q\" \\ caf\xc3\xa9";
  const std::string attr_key = "weird\nkey";

  Trace trace;
  SpanId root = trace.StartSpan(name);
  trace.AddAttr(root, attr_key, attr_value);
  trace.EndSpan(root);

  const std::string json = trace.ToChromeJson();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc)) << json;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  const JsonValue* span_event = nullptr;
  for (const auto& ev : events->array) {
    if (ev.Find("ph")->str == "X") span_event = &ev;
  }
  ASSERT_NE(span_event, nullptr);
  // Parsing undoes the escaping exactly: what went in comes back out.
  EXPECT_EQ(span_event->Find("name")->str, name);
  const JsonValue* args = span_event->Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find(attr_key)->str, attr_value);
}

TEST(TraceTest, ChromeJsonRoundTrips) {
  Trace trace;
  SpanId root = trace.StartSpan("query");
  trace.AddAttr(root, "query", "How many \"questions\"?\n");
  trace.AddAttr(root, "llm.calls", static_cast<int64_t>(12));
  SpanId node = trace.StartSpan("exec.node", root);
  trace.EndSpan(node);
  trace.SetVirtualInterval(node, 1.25, 4.5);
  trace.EndSpan(root);

  const std::string json = trace.ToChromeJson();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc)) << json;

  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  int wall_events = 0;
  int virt_events = 0;
  int meta_events = 0;
  const JsonValue* root_event = nullptr;
  const JsonValue* virt_node = nullptr;
  for (const auto& ev : events->array) {
    const std::string ph = ev.Find("ph")->str;
    if (ph == "M") {
      ++meta_events;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const double pid = ev.Find("pid")->number;
    if (pid == 1) {
      ++wall_events;
      if (ev.Find("name")->str == "query") root_event = &ev;
    } else {
      ASSERT_EQ(pid, 2);
      ++virt_events;
      virt_node = &ev;
    }
    EXPECT_GE(ev.Find("dur")->number, 0);
  }
  EXPECT_EQ(meta_events, 2);  // wall + virtual process names
  EXPECT_EQ(wall_events, 2);
  EXPECT_EQ(virt_events, 1);  // only the node has a virtual interval

  ASSERT_NE(root_event, nullptr);
  const JsonValue* args = root_event->Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("query")->str, "How many \"questions\"?\n");
  EXPECT_EQ(args->Find("llm.calls")->str, "12");

  // Virtual timestamps are seconds rendered as microseconds.
  ASSERT_NE(virt_node, nullptr);
  EXPECT_DOUBLE_EQ(virt_node->Find("ts")->number, 1.25e6);
  EXPECT_DOUBLE_EQ(virt_node->Find("dur")->number, (4.5 - 1.25) * 1e6);
}

TEST(TraceTest, ToTextRendersTree) {
  Trace trace;
  SpanId root = trace.StartSpan("query");
  SpanId child = trace.StartSpan("plan.logical", root);
  trace.AddAttr(child, "plans", static_cast<int64_t>(3));
  trace.EndSpan(child);
  trace.EndSpan(root);

  const std::string text = trace.ToText();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("+- plan.logical"), std::string::npos);
  EXPECT_NE(text.find("plans=3"), std::string::npos);
}

}  // namespace
}  // namespace unify
