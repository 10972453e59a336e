#include "server/protocol.hh"

#include "tracefile/format.hh"

namespace interp::server {

using tracefile::getU32;
using tracefile::getU64;
using tracefile::putU32;
using tracefile::putU64;

namespace {

constexpr uint8_t kMaxLang = (uint8_t)(harness::kNumModes - 1);
constexpr uint8_t kKnownFlags =
    kFlagRecordTrace | kFlagWithMachine | kFlagNeedsInputs;

/** Rewrite the placeholder length prefix once the payload is known. */
void
sealFrame(std::string &out, size_t frame_start)
{
    uint32_t len = (uint32_t)(out.size() - frame_start - 4);
    out[frame_start + 0] = (char)(len & 0xff);
    out[frame_start + 1] = (char)((len >> 8) & 0xff);
    out[frame_start + 2] = (char)((len >> 16) & 0xff);
    out[frame_start + 3] = (char)((len >> 24) & 0xff);
}

bool
getString(const uint8_t *&p, const uint8_t *end, uint32_t max_len,
          std::string &out)
{
    uint32_t len = 0;
    if (!getU32(p, end, len) || len > max_len ||
        (size_t)(end - p) < len)
        return false;
    out.assign((const char *)p, len);
    p += len;
    return true;
}

} // namespace

void
encodeHello(std::string &out)
{
    out += 'I';
    out += 'P';
    out += 'D';
    out += (char)kProtocolVersion;
}

HelloResult
takeHello(std::string &buf)
{
    static const char expect[kHelloBytes] = {'I', 'P', 'D',
                                             (char)kProtocolVersion};
    size_t have = buf.size() < kHelloBytes ? buf.size() : kHelloBytes;
    for (size_t i = 0; i < have; ++i)
        if (buf[i] != expect[i])
            return HelloResult::Mismatch;
    if (have < kHelloBytes)
        return HelloResult::Incomplete;
    buf.erase(0, kHelloBytes);
    return HelloResult::Ok;
}

HelloResult
takeHello(RecvBuffer &buf)
{
    static const char expect[kHelloBytes] = {'I', 'P', 'D',
                                             (char)kProtocolVersion};
    size_t have = buf.size() < kHelloBytes ? buf.size() : kHelloBytes;
    const char *p = buf.data();
    for (size_t i = 0; i < have; ++i)
        if (p[i] != expect[i])
            return HelloResult::Mismatch;
    if (have < kHelloBytes)
        return HelloResult::Incomplete;
    buf.consume(kHelloBytes);
    return HelloResult::Ok;
}

const char *
statusName(Status status)
{
    switch (status) {
      case Status::Ok: return "OK";
      case Status::Shed: return "SHED";
      case Status::Deadline: return "DEADLINE";
      case Status::Error: return "ERROR";
      default: return "?";
    }
}

void
encodeEvalRequest(std::string &out, const EvalRequest &req)
{
    size_t start = out.size();
    putU32(out, 0); // length placeholder
    out.push_back((char)Verb::Eval);
    putU32(out, req.id);
    out.push_back((char)req.mode);
    out.push_back((char)req.flags);
    putU32(out, req.deadlineMs);
    putU64(out, req.maxCommands);
    putU32(out, req.iterations);
    out.push_back((char)req.kind);
    putU32(out, (uint32_t)req.program.size());
    out += req.program;
    sealFrame(out, start);
}

void
encodeStatsRequest(std::string &out, const StatsRequest &req)
{
    size_t start = out.size();
    putU32(out, 0);
    out.push_back((char)Verb::Stats);
    putU32(out, req.id);
    sealFrame(out, start);
}

void
encodeResponse(std::string &out, const EvalResponse &resp)
{
    size_t start = out.size();
    putU32(out, 0);
    putU32(out, resp.id);
    out.push_back((char)resp.status);
    putU64(out, resp.commands);
    putU64(out, resp.instructions);
    putU64(out, resp.cycles);
    putU64(out, resp.queueMicros);
    putU64(out, resp.serviceMicros);
    putU32(out, (uint32_t)resp.result.size());
    out += resp.result;
    sealFrame(out, start);
}

FrameResult
takeFrame(std::string &buf, std::string &payload, uint32_t max_bytes)
{
    if (buf.size() < 4)
        return FrameResult::Incomplete;
    const uint8_t *p = (const uint8_t *)buf.data();
    uint32_t len = (uint32_t)p[0] | ((uint32_t)p[1] << 8) |
                   ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
    if (len > max_bytes)
        return FrameResult::Malformed;
    if (buf.size() < (size_t)4 + len)
        return FrameResult::Incomplete;
    payload.assign(buf, 4, len);
    buf.erase(0, (size_t)4 + len);
    return FrameResult::Frame;
}

FrameResult
takeFrame(RecvBuffer &buf, std::string &payload, uint32_t max_bytes)
{
    if (buf.size() < 4)
        return FrameResult::Incomplete;
    const uint8_t *p = (const uint8_t *)buf.data();
    uint32_t len = (uint32_t)p[0] | ((uint32_t)p[1] << 8) |
                   ((uint32_t)p[2] << 16) | ((uint32_t)p[3] << 24);
    if (len > max_bytes)
        return FrameResult::Malformed;
    if (buf.size() < (size_t)4 + len)
        return FrameResult::Incomplete;
    payload.assign(buf.data() + 4, len);
    buf.consume((size_t)4 + len);
    return FrameResult::Frame;
}

uint8_t
requestVerb(const std::string &payload)
{
    return payload.empty() ? 0 : (uint8_t)payload[0];
}

bool
decodeEvalRequest(const std::string &payload, EvalRequest &req)
{
    const uint8_t *p = (const uint8_t *)payload.data();
    const uint8_t *end = p + payload.size();
    if (p == end || *p++ != (uint8_t)Verb::Eval)
        return false;
    if (!getU32(p, end, req.id))
        return false;
    if (p == end)
        return false;
    uint8_t mode = *p++;
    if (mode > kMaxLang)
        return false;
    req.mode = (harness::Lang)mode;
    if (p == end)
        return false;
    req.flags = *p++;
    if (req.flags & ~kKnownFlags)
        return false;
    if (!getU32(p, end, req.deadlineMs) ||
        !getU64(p, end, req.maxCommands) ||
        !getU32(p, end, req.iterations))
        return false;
    if (p == end)
        return false;
    uint8_t kind = *p++;
    if (kind > (uint8_t)ProgramKind::Inline)
        return false;
    req.kind = (ProgramKind)kind;
    if (!getString(p, end, kMaxRequestBytes, req.program))
        return false;
    return p == end;
}

bool
decodeStatsRequest(const std::string &payload, StatsRequest &req)
{
    const uint8_t *p = (const uint8_t *)payload.data();
    const uint8_t *end = p + payload.size();
    if (p == end || *p++ != (uint8_t)Verb::Stats)
        return false;
    if (!getU32(p, end, req.id))
        return false;
    return p == end;
}

bool
decodeResponse(const std::string &payload, EvalResponse &resp)
{
    const uint8_t *p = (const uint8_t *)payload.data();
    const uint8_t *end = p + payload.size();
    if (!getU32(p, end, resp.id))
        return false;
    if (p == end)
        return false;
    uint8_t status = *p++;
    if (status > (uint8_t)Status::Error)
        return false;
    resp.status = (Status)status;
    if (!getU64(p, end, resp.commands) ||
        !getU64(p, end, resp.instructions) ||
        !getU64(p, end, resp.cycles) ||
        !getU64(p, end, resp.queueMicros) ||
        !getU64(p, end, resp.serviceMicros))
        return false;
    if (!getString(p, end, kMaxResponseBytes, resp.result))
        return false;
    return p == end;
}

} // namespace interp::server
