#include "timed.h"

#include <algorithm>

namespace anc::perf {

const char* SpanName(Span span) {
  switch (span) {
    case Span::kOp: return "op";
    case Span::kCoreStep: return "core.step";
    case Span::kProtoStep: return "protocols.step";
    case Span::kObserve: return "phy.observe";
    case Span::kResolve: return "phy.resolve";
    case Span::kRelease: return "phy.release";
    case Span::kEmit: return "trace.emit";
    case Span::kFlush: return "store.flush";
    case Span::kStoreAdd: return "store.add";
    case Span::kChurn: return "service.churn";
    case Span::kRound: return "service.round";
    case Span::kShutdown: return "protocol.shutdown";
    case Span::kCut: return "checkpoint.cut";
    case Span::kSave: return "checkpoint.protocol_save";
    case Span::kStoreWrite: return "store.write";
    case Span::kStoreRead: return "store.read";
    case Span::kQuery: return "store.query";
    case Span::kTransform: return "store.transform";
    case Span::kLzCompress: return "store.lz_compress";
    case Span::kCrc: return "store.crc";
    case Span::kLzDecompress: return "store.lz_decompress";
    case Span::kDecode: return "store.decode";
    case Span::kSeek: return "store.seek";
    case Span::kCount: break;
  }
  return "?";
}

void Tracer::BeginOp(std::uint64_t op, bool keep_raw) {
  op_ = op;
  keep_raw_ = keep_raw;
  ++counters_.ops;
  Begin(Span::kOp);
}

void Tracer::EndOp() {
  CloseDeferred();
  End();
  keep_raw_ = false;
}

void Tracer::Begin(Span name) {
  stack_.push_back(Frame{name, next_id_++, Now(), 0});
}

void Tracer::EndAs(Span name) {
  const std::int64_t end = Now();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - f.start_ns;
  if (f.child_ns > dur) children_within_parent_ = false;
  const Span parent = stack_.empty() ? Span::kCount : stack_.back().name;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  // Root spans aggregate under themselves.
  Agg& a = agg_[Index(parent == Span::kCount ? name : parent)][Index(name)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - f.child_ns;
  if (name == Span::kCut) {
    counters_.cut_ms.push_back(static_cast<double>(dur) / 1e6);
  }
  if (keep_raw_ && raw_.size() < kMaxRaw) {
    raw_.push_back(RawSpan{op_, f.id, stack_.empty() ? 0 : stack_.back().id,
                           name, f.start_ns, end});
  }
}

Tracer::Agg Tracer::Total(Span name) const {
  Agg sum;
  for (const auto& row : agg_) {
    const Agg& a = row[Index(name)];
    sum.count += a.count;
    sum.total_ns += a.total_ns;
    sum.self_ns += a.self_ns;
  }
  return sum;
}

void TimedPhy::ObserveBatch(const phy::SlotBatch& batch,
                            std::span<phy::SlotObservation> out) {
  t_.Begin(Span::kObserve);
  inner_.ObserveBatch(batch, out);
  t_.End();
  Counters& c = t_.counters();
  c.observed_slots += batch.slots();
  for (std::size_t i = 0; i < batch.slots(); ++i) {
    if (out[i].record.valid()) ++c.records_opened;
  }
  const std::uint64_t open = inner_.OpenRecords();
  c.open_records_sum += open * batch.slots();
  c.open_records_max = std::max(c.open_records_max, open);
}

void TimedPhy::TryResolveBatch(std::span<const phy::ResolveRequest> requests,
                               std::span<std::optional<TagId>> out) {
  t_.Begin(Span::kResolve);
  inner_.TryResolveBatch(requests, out);
  t_.End();
  Counters& c = t_.counters();
  c.resolve_requests += requests.size();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (out[i].has_value()) ++c.resolve_useful;
  }
}

void TimedPhy::ReleaseRecord(phy::RecordHandle record) {
  Scoped s(t_, Span::kRelease);
  inner_.ReleaseRecord(record);
}

void TimedSink::OnEvent(const trace::TraceEvent& event) {
  const std::size_t blocks = store_ ? store_->writer().blocks().size() : 0;
  t_.Begin(Span::kEmit);
  inner_->OnEvent(event);
  const bool flushed = store_ && store_->writer().blocks().size() > blocks;
  t_.EndAs(flushed ? Span::kFlush : Span::kEmit);
  ++t_.counters().sink_events;
}

void TimedProtocol::Step() {
  t_.CloseDeferred();
  Scoped s(t_, step_span_);
  inner_->Step();
}

void TimedProtocol::AttachTrace(const trace::TraceContext& context) {
  t_.CloseDeferred();
  if (!context.sink) {
    inner_->AttachTrace(context);
    return;
  }
  sink_ = std::make_unique<TimedSink>(context.sink, t_);
  inner_->AttachTrace(trace::TraceContext{sink_.get(), context.reader});
}

bool TimedProtocol::ArriveTag(const TagId& id) {
  t_.CloseDeferred();
  ++t_.counters().churn_calls;
  Scoped s(t_, Span::kChurn);
  return inner_->ArriveTag(id);
}

bool TimedProtocol::DepartTag(const TagId& id) {
  t_.CloseDeferred();
  ++t_.counters().churn_calls;
  Scoped s(t_, Span::kChurn);
  return inner_->DepartTag(id);
}

bool TimedProtocol::BeginInventoryRound(bool refresh) {
  t_.CloseDeferred();
  Scoped s(t_, Span::kRound);
  return inner_->BeginInventoryRound(refresh);
}

void TimedProtocol::Shutdown() {
  t_.CloseDeferred();
  Scoped s(t_, Span::kShutdown);
  inner_->Shutdown();
}

void TimedProtocol::SaveState(std::string* out) const {
  Scoped s(t_, Span::kSave);
  inner_->SaveState(out);
}

}  // namespace anc::perf
