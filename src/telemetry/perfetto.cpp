#include "telemetry/perfetto.hpp"

#include <algorithm>
#include <cstdio>

namespace lssim {
namespace {

Json block_args(Addr block) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%06llx",
                static_cast<unsigned long long>(block));
  Json::Object args;
  args.emplace_back("block", Json(std::string(buf)));
  return Json(std::move(args));
}

Json metadata_event(const char* what, int pid, int tid, std::string name) {
  Json::Object ev;
  ev.emplace_back("name", Json(what));
  ev.emplace_back("ph", Json("M"));
  ev.emplace_back("pid", Json(pid));
  if (tid >= 0) ev.emplace_back("tid", Json(tid));
  Json::Object args;
  args.emplace_back("name", Json(std::move(name)));
  ev.emplace_back("args", Json(std::move(args)));
  return Json(std::move(ev));
}

Json span_event(int pid, const TraceSpan& s) {
  Json::Object ev;
  ev.emplace_back("name", Json(to_string(s.kind)));
  ev.emplace_back("cat", Json("coherence"));
  ev.emplace_back("ph", Json("X"));
  ev.emplace_back("ts", Json(s.begin));
  ev.emplace_back("dur", Json(s.end - s.begin));
  ev.emplace_back("pid", Json(pid));
  ev.emplace_back("tid", Json(static_cast<int>(s.node)));
  ev.emplace_back("args", block_args(s.block));
  return Json(std::move(ev));
}

Json instant_event(int pid, const TraceInstant& i) {
  Json::Object ev;
  ev.emplace_back("name", Json(to_string(i.kind)));
  ev.emplace_back("cat", Json("coherence"));
  ev.emplace_back("ph", Json("i"));
  ev.emplace_back("s", Json("t"));  // Thread-scoped instant.
  ev.emplace_back("ts", Json(i.time));
  ev.emplace_back("pid", Json(pid));
  ev.emplace_back("tid", Json(static_cast<int>(i.node)));
  ev.emplace_back("args", block_args(i.block));
  return Json(std::move(ev));
}

}  // namespace

Json chrome_trace_to_json(const std::vector<TraceProcess>& processes) {
  Json::Array events;
  std::uint64_t dropped_total = 0;
  for (std::size_t p = 0; p < processes.size(); ++p) {
    const TraceProcess& proc = processes[p];
    const int pid = static_cast<int>(p);
    events.push_back(metadata_event("process_name", pid, -1, proc.name));

    std::vector<NodeId> nodes_seen;
    const auto note_node = [&nodes_seen](NodeId node) {
      if (std::find(nodes_seen.begin(), nodes_seen.end(), node) ==
          nodes_seen.end()) {
        nodes_seen.push_back(node);
      }
    };

    if (proc.trace != nullptr) {
      for (const TraceSpan& s : proc.trace->spans()) {
        events.push_back(span_event(pid, s));
        note_node(s.node);
      }
      for (const TraceInstant& i : proc.trace->instants()) {
        events.push_back(instant_event(pid, i));
        note_node(i.node);
      }
      dropped_total += proc.trace->dropped();
    }

    std::sort(nodes_seen.begin(), nodes_seen.end());
    for (const NodeId node : nodes_seen) {
      events.push_back(metadata_event("thread_name", pid,
                                      static_cast<int>(node),
                                      "node " + std::to_string(node)));
    }
  }

  Json::Object doc;
  doc.emplace_back("displayTimeUnit", Json("ms"));
  Json::Object other;
  other.emplace_back("generator", Json("lssim"));
  other.emplace_back("time_unit", Json("1 cycle = 1us"));
  other.emplace_back("dropped_events", Json(dropped_total));
  doc.emplace_back("otherData", Json(std::move(other)));
  doc.emplace_back("traceEvents", Json(std::move(events)));
  return Json(std::move(doc));
}

void write_chrome_trace(std::ostream& os,
                        const std::vector<TraceProcess>& processes) {
  chrome_trace_to_json(processes).write(os, 1);
  os << '\n';
}

void write_chrome_trace(std::ostream& os, const std::string& name,
                        const CoherenceTrace& trace) {
  write_chrome_trace(os, {TraceProcess{name, &trace}});
}

bool parse_chrome_trace(std::string_view text,
                        std::vector<ChromeTraceEvent>* out,
                        std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  std::string parse_error;
  const Json doc = Json::parse(text, &parse_error);
  if (!parse_error.empty()) {
    if (error != nullptr) *error = parse_error;
    return false;
  }
  if (!doc.is_object()) return fail("trace document must be an object");
  const Json* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("trace document needs a 'traceEvents' array");
  }
  out->clear();
  for (const Json& ev : events->as_array()) {
    if (!ev.is_object()) return fail("trace event must be an object");
    ChromeTraceEvent parsed;
    const Json* name = ev.find("name");
    const Json* ph = ev.find("ph");
    if (name == nullptr || !name->is_string() || ph == nullptr ||
        !ph->is_string()) {
      return fail("trace event needs string 'name' and 'ph'");
    }
    parsed.name = name->as_string();
    parsed.ph = ph->as_string();
    if (const Json* cat = ev.find("cat"); cat != nullptr && cat->is_string()) {
      parsed.cat = cat->as_string();
    }
    if (const Json* ts = ev.find("ts"); ts != nullptr && ts->is_number()) {
      parsed.ts = ts->as_uint();
    }
    if (const Json* dur = ev.find("dur"); dur != nullptr && dur->is_number()) {
      parsed.dur = dur->as_uint();
    }
    if (const Json* pid = ev.find("pid"); pid != nullptr && pid->is_number()) {
      parsed.pid = static_cast<int>(pid->as_uint());
    }
    if (const Json* tid = ev.find("tid"); tid != nullptr && tid->is_number()) {
      parsed.tid = static_cast<int>(tid->as_uint());
    }
    if (const Json* args = ev.find("args"); args != nullptr) {
      if (const Json* block = args->find("block");
          block != nullptr && block->is_string()) {
        parsed.arg_block = block->as_string();
      }
    }
    out->push_back(std::move(parsed));
  }
  return true;
}

}  // namespace lssim
