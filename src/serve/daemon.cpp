#include "serve/daemon.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <sstream>
#include <utility>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "runtime/trace_io.hpp"
#include "serve/wire.hpp"
#include "support/strings.hpp"

namespace dsspy::serve {

namespace {

using support::json_escape;

/// Daemon-wide obs counters (name-only; per-tenant dimensions render as
/// labeled samples in render_metrics instead).
struct ServeMetricIds {
    obs::MetricId connections;
    obs::MetricId rejected;
    obs::MetricId malformed;
    obs::MetricId http_requests;
    obs::MetricId frames;
    obs::MetricId trace_bytes;
    obs::MetricId tenants_finished;
    obs::MetricId tenants_aborted;
};

const ServeMetricIds& serve_metrics() {
    static const ServeMetricIds ids = [] {
        auto& reg = obs::MetricsRegistry::global();
        return ServeMetricIds{
            reg.counter("serve.connections"),
            reg.counter("serve.rejected"),
            reg.counter("serve.malformed"),
            reg.counter("serve.http_requests"),
            reg.counter("serve.frames"),
            reg.counter("serve.trace_bytes"),
            reg.counter("serve.tenants_finished"),
            reg.counter("serve.tenants_aborted"),
        };
    }();
    return ids;
}

void bump(obs::MetricId id, std::uint64_t delta = 1) {
    if (obs::enabled()) obs::MetricsRegistry::global().add(id, delta);
}

/// Largest HTTP request we bother reading; status endpoints have no
/// bodies, so anything bigger is not one of ours.
constexpr std::size_t kMaxHttpRequestBytes = 8192;

const char* io_status_reason(IoStatus status) {
    switch (status) {
        case IoStatus::Ok: return "ok";
        case IoStatus::Eof: return "client disconnected mid-stream";
        case IoStatus::Error: return "socket error mid-stream";
        case IoStatus::Stopped: return "daemon stopped";
        case IoStatus::Timeout: return "client idle timeout";
    }
    return "unknown";
}

}  // namespace

bool Daemon::start(std::string* error) {
    const std::optional<Address> addr =
        parse_address(options_.listen, error);
    if (!addr.has_value()) return false;
    if (!listener_.listen_on(*addr, error)) return false;
    // A daemon that exports /metrics wants its own telemetry on; this is
    // the serve-process equivalent of the CLI's --metrics-out opt-in.
    // Span tracing likewise: /tenants/<id>/trace serves live timelines,
    // so the recorder is always on in the daemon process.
    obs::MetricsRegistry::global().set_enabled(true);
    obs::TraceRecorder::global().set_enabled(true);
    obs::TraceRecorder::global().set_slow_op_threshold_ns(
        options_.slow_op_ms > 0
            ? static_cast<std::uint64_t>(options_.slow_op_ms) * 1000000u
            : 0);
    stop_.store(false, std::memory_order_release);
    accept_thread_ = std::thread([this] { accept_loop(); });
    return true;
}

void Daemon::stop() {
    stop_.store(true, std::memory_order_release);
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.close();
    std::vector<Connection> conns;
    {
        const std::lock_guard<std::mutex> lock(conns_mutex_);
        conns.swap(conns_);
    }
    for (Connection& conn : conns)
        if (conn.thread.joinable()) conn.thread.join();
}

void Daemon::accept_loop() {
    while (!stop_.load(std::memory_order_acquire)) {
        Socket sock = listener_.accept_next(stop_);
        if (!sock.valid()) break;
        connections_.fetch_add(1, std::memory_order_relaxed);
        bump(serve_metrics().connections);
        reap_connections();
        Connection conn;
        conn.done = std::make_shared<std::atomic<bool>>(false);
        auto done = conn.done;
        conn.thread = std::thread(
            [this, done](Socket s) {
                handle_connection(std::move(s));
                done->store(true, std::memory_order_release);
            },
            std::move(sock));
        const std::lock_guard<std::mutex> lock(conns_mutex_);
        conns_.push_back(std::move(conn));
    }
}

void Daemon::reap_connections() {
    std::vector<std::thread> finished;
    {
        const std::lock_guard<std::mutex> lock(conns_mutex_);
        auto it = conns_.begin();
        while (it != conns_.end()) {
            if (it->done->load(std::memory_order_acquire)) {
                finished.push_back(std::move(it->thread));
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (std::thread& th : finished)
        if (th.joinable()) th.join();
}

std::shared_ptr<TenantSession> Daemon::admit_tenant(std::string name) {
    const std::lock_guard<std::mutex> lock(tenants_mutex_);
    std::size_t streaming = 0;
    for (const auto& [id, session] : tenants_)
        if (session->summary().state == TenantState::Streaming) ++streaming;
    if (streaming >= options_.max_tenants) return nullptr;
    const std::uint32_t id = next_tenant_id_++;
    if (name.empty()) name = "tenant-" + std::to_string(id);
    auto session = std::make_shared<TenantSession>(
        id, std::move(name), options_.config,
        options_.max_tenant_instances);
    tenants_.emplace(id, session);
    return session;
}

void Daemon::evict_finished() {
    const std::lock_guard<std::mutex> lock(tenants_mutex_);
    std::size_t terminal = 0;
    for (const auto& [id, session] : tenants_)
        if (session->summary().state != TenantState::Streaming) ++terminal;
    // The map is id-ordered and ids are monotonic, so a front-to-back
    // sweep evicts oldest-first.
    auto it = tenants_.begin();
    while (terminal > options_.max_finished_tenants &&
           it != tenants_.end()) {
        if (it->second->summary().state != TenantState::Streaming) {
            it = tenants_.erase(it);
            --terminal;
        } else {
            ++it;
        }
    }
}

void Daemon::handle_connection(Socket sock) {
    // Protocol dispatch on the first four bytes.
    std::array<char, wire::kMagicBytes> magic{};
    const IoStatus st = sock.read_exact(magic.data(), magic.size(), &stop_,
                                        options_.client_timeout_ms);
    if (st != IoStatus::Ok) return;
    const std::string_view head(magic.data(), magic.size());
    if (head == wire::kHelloMagic) {
        handle_stream(sock);
    } else if (head == "GET ") {
        handle_http(sock);
    } else {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        bump(serve_metrics().malformed);
        (void)sock.write_all(
            wire::encode_reject("unrecognized protocol magic"));
    }
}

void Daemon::handle_stream(Socket& sock) {
    // Rest of the hello: version, flags, name length, name.
    std::array<unsigned char, 6> fixed{};
    if (sock.read_exact(fixed.data(), fixed.size(), &stop_,
                        options_.client_timeout_ms) != IoStatus::Ok) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        bump(serve_metrics().malformed);
        return;
    }
    const std::uint16_t version = wire::get_u16(fixed.data());
    const std::uint16_t name_len = wire::get_u16(fixed.data() + 4);
    std::string name(name_len, '\0');
    if (name_len > 0 &&
        sock.read_exact(name.data(), name_len, &stop_,
                        options_.client_timeout_ms) != IoStatus::Ok) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        bump(serve_metrics().malformed);
        return;
    }
    // The spec caps tenant names at 255 bytes; the reference client
    // truncates, but the daemon must not trust that — a hand-rolled
    // client's oversized name would otherwise flow into /tenants JSON
    // and Prometheus labels.
    if (name.size() > wire::kMaxTenantNameBytes)
        name.resize(wire::kMaxTenantNameBytes);
    if (version != wire::kVersion) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        bump(serve_metrics().rejected);
        (void)sock.write_all(wire::encode_reject(
            "unsupported protocol version " + std::to_string(version)));
        return;
    }
    std::shared_ptr<TenantSession> session = admit_tenant(std::move(name));
    if (session == nullptr) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        bump(serve_metrics().rejected);
        (void)sock.write_all(wire::encode_reject(
            "tenant limit reached (" +
            std::to_string(options_.max_tenants) + ")"));
        return;
    }
    if (!sock.write_all(wire::encode_accept(session->id()))) {
        session->abort("client disconnected during handshake");
        bump(serve_metrics().tenants_aborted);
        evict_finished();
        return;
    }

    // Frame loop, shaped as a ChunkSource so the prefix-carry streaming
    // reader consumes the socket directly.  The source never throws: a
    // dead or misbehaving peer sets `conn_error` and ends the stream, and
    // the handler sorts out Finished vs Aborted afterwards.
    std::string frame_buf;
    bool saw_end = false;
    std::string conn_error;
    const runtime::ChunkSource next_chunk = [&]() -> std::string_view {
        if (saw_end || !conn_error.empty()) return {};
        for (;;) {
            std::array<unsigned char, wire::kFrameHeaderBytes> hdr{};
            const IoStatus hst =
                sock.read_exact(hdr.data(), hdr.size(), &stop_,
                                options_.client_timeout_ms);
            if (hst != IoStatus::Ok) {
                conn_error = io_status_reason(hst);
                return {};
            }
            const char type = static_cast<char>(hdr[0]);
            const std::uint32_t len = wire::get_u32(hdr.data() + 1);
            if (type == wire::kFrameEnd) {
                if (len != 0) conn_error = "end frame carries a payload";
                else saw_end = true;
                return {};
            }
            if (type != wire::kFrameTrace || len == 0) {
                conn_error = "malformed frame (type " +
                             std::to_string(hdr[0]) + ", len " +
                             std::to_string(len) + ")";
                return {};
            }
            if (len > options_.max_frame_bytes) {
                conn_error = "frame exceeds max-frame-bytes (" +
                             std::to_string(len) + " > " +
                             std::to_string(options_.max_frame_bytes) + ")";
                return {};
            }
            // Spans the payload read + bookkeeping of one 'T' frame (the
            // idle wait for the header stays outside); decode and fold
            // time shows up as serve.fold siblings from on_events.
            DSSPY_TRACE_SPAN_UNDER("serve.frame", session->trace_context());
            frame_buf.resize(len);
            const IoStatus pst =
                sock.read_exact(frame_buf.data(), len, &stop_,
                                options_.client_timeout_ms);
            if (pst != IoStatus::Ok) {
                conn_error = io_status_reason(pst);
                return {};
            }
            session->add_frame(len);
            bump(serve_metrics().frames);
            bump(serve_metrics().trace_bytes, len);
            return std::string_view(frame_buf);
        }
    };

    std::string parse_error;
    try {
        runtime::read_trace_stream(next_chunk, *session);
    } catch (const std::exception& ex) {
        parse_error = ex.what();
    }

    if (parse_error.empty() && conn_error.empty() && saw_end) {
        session->finish();
        bump(serve_metrics().tenants_finished);
        evict_finished();
        const std::string line = session->summary_line();
        (void)sock.write_all(wire::encode_frame_header(
            wire::kFrameResult, static_cast<std::uint32_t>(line.size())));
        (void)sock.write_all(line);
        return;
    }
    const std::string reason =
        !parse_error.empty() ? "trace error: " + parse_error
        : !conn_error.empty() ? conn_error
                              : "stream ended unexpectedly";
    if (!parse_error.empty() || conn_error.rfind("malformed", 0) == 0 ||
        conn_error.rfind("frame exceeds", 0) == 0 ||
        conn_error.rfind("end frame", 0) == 0) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        bump(serve_metrics().malformed);
    }
    session->abort(reason);
    bump(serve_metrics().tenants_aborted);
    evict_finished();
    // Best effort: a crashed peer will never read this.
    (void)sock.write_all(wire::encode_frame_header(
        wire::kFrameError, static_cast<std::uint32_t>(reason.size())));
    (void)sock.write_all(reason);
    // Drain until the peer closes: closing a TCP socket with unread bytes
    // in the receive buffer sends RST, which would destroy the 'X' reply
    // before a still-sending client reads it.
    char sink_buf[4096];
    std::size_t got = 0;
    while (sock.read_some(sink_buf, sizeof(sink_buf), &got, &stop_,
                          options_.client_timeout_ms) == IoStatus::Ok) {
    }
}

void Daemon::handle_http(Socket& sock) {
    http_requests_.fetch_add(1, std::memory_order_relaxed);
    bump(serve_metrics().http_requests);
    // "GET " is consumed; read until the blank line ending the headers.
    std::string request;
    while (request.find("\r\n\r\n") == std::string::npos &&
           request.size() < kMaxHttpRequestBytes) {
        char buf[1024];
        std::size_t got = 0;
        if (sock.read_some(buf, sizeof(buf), &got, &stop_,
                           options_.client_timeout_ms) != IoStatus::Ok)
            break;
        request.append(buf, got);
    }
    const std::size_t space = request.find(' ');
    const std::size_t eol = request.find("\r\n");
    std::string target = request.substr(
        0, std::min(space == std::string::npos ? request.size() : space,
                    eol == std::string::npos ? request.size() : eol));
    if (target.empty()) {
        write_http(sock, 400, "bad request\n", "text/plain; charset=utf-8");
        return;
    }
    if (target == "/healthz") {
        write_http(sock, 200, "ok\n", "text/plain; charset=utf-8");
        return;
    }
    if (target == "/metrics") {
        write_http(sock, 200, render_metrics(),
                   "text/plain; version=0.0.4; charset=utf-8");
        return;
    }
    if (target == "/tenants") {
        write_http(sock, 200, render_tenants_json(), "application/json");
        return;
    }
    // /tenants/<id>/report, /tenants/<id>/advice, and /tenants/<id>/trace
    constexpr std::string_view kPrefix = "/tenants/";
    const auto route = [&](std::string_view suffix) {
        return target.rfind(kPrefix, 0) == 0 &&
               target.size() > kPrefix.size() &&
               target.size() >= kPrefix.size() + suffix.size() &&
               target.compare(target.size() - suffix.size(), suffix.size(),
                              suffix) == 0;
    };
    const auto parse_id = [&](std::string_view suffix, std::uint32_t* id) {
        const std::string id_str = target.substr(
            kPrefix.size(), target.size() - kPrefix.size() - suffix.size());
        // from_chars into the id's own width: ids past UINT32_MAX are a
        // range error (404), never an aliased truncation.
        const auto [ptr, ec] = std::from_chars(
            id_str.data(), id_str.data() + id_str.size(), *id);
        return ec == std::errc{} &&
               ptr == id_str.data() + id_str.size() && !id_str.empty();
    };
    if (route("/report")) {
        std::uint32_t id = 0;
        if (parse_id("/report", &id)) {
            const std::optional<std::string> report = tenant_report(id);
            if (report.has_value()) {
                write_http(sock, 200, *report,
                           "text/plain; charset=utf-8");
                return;
            }
        }
        write_http(sock, 404, "no such tenant\n",
                   "text/plain; charset=utf-8");
        return;
    }
    if (route("/advice")) {
        std::uint32_t id = 0;
        if (parse_id("/advice", &id)) {
            const std::optional<std::string> advice = tenant_advice(id);
            if (advice.has_value()) {
                write_http(sock, 200, *advice, "application/json");
                return;
            }
        }
        write_http(sock, 404, "no such tenant\n",
                   "text/plain; charset=utf-8");
        return;
    }
    if (route("/trace")) {
        std::uint32_t id = 0;
        if (parse_id("/trace", &id)) {
            const std::optional<std::string> trace = tenant_trace(id);
            if (trace.has_value()) {
                write_http(sock, 200, *trace, "application/json");
                return;
            }
        }
        write_http(sock, 404, "no such tenant\n",
                   "text/plain; charset=utf-8");
        return;
    }
    write_http(sock, 404, "not found\n", "text/plain; charset=utf-8");
}

void Daemon::write_http(Socket& sock, int status, const std::string& body,
                        const char* content_type) const {
    const char* reason = status == 200   ? "OK"
                         : status == 404 ? "Not Found"
                                         : "Bad Request";
    std::ostringstream os;
    os << "HTTP/1.1 " << status << ' ' << reason << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Content-Length: " << body.size() << "\r\n"
       << "Connection: close\r\n\r\n"
       << body;
    (void)sock.write_all(os.str());
}

std::vector<TenantSummary> Daemon::tenants() const {
    std::vector<std::shared_ptr<TenantSession>> sessions;
    {
        const std::lock_guard<std::mutex> lock(tenants_mutex_);
        sessions.reserve(tenants_.size());
        for (const auto& [id, session] : tenants_) sessions.push_back(session);
    }
    std::vector<TenantSummary> out;
    out.reserve(sessions.size());
    for (const auto& session : sessions) out.push_back(session->summary());
    return out;
}

std::optional<std::string> Daemon::tenant_report(std::uint32_t id) const {
    std::shared_ptr<TenantSession> session;
    {
        const std::lock_guard<std::mutex> lock(tenants_mutex_);
        const auto it = tenants_.find(id);
        if (it == tenants_.end()) return std::nullopt;
        session = it->second;
    }
    return session->report_text();
}

std::optional<std::string> Daemon::tenant_advice(std::uint32_t id) const {
    std::shared_ptr<TenantSession> session;
    {
        const std::lock_guard<std::mutex> lock(tenants_mutex_);
        const auto it = tenants_.find(id);
        if (it == tenants_.end()) return std::nullopt;
        session = it->second;
    }
    return session->advice_json();
}

std::optional<std::string> Daemon::tenant_trace(std::uint32_t id) const {
    std::shared_ptr<TenantSession> session;
    {
        const std::lock_guard<std::mutex> lock(tenants_mutex_);
        const auto it = tenants_.find(id);
        if (it == tenants_.end()) return std::nullopt;
        session = it->second;
    }
    // Live timelines are legal: snapshot() returns every span published
    // so far, and a streaming tenant's children are already tagged with
    // its root id (the still-open root itself joins once it ends).
    const std::vector<obs::SpanRecord> tree = obs::spans_for_root(
        obs::TraceRecorder::global().snapshot(),
        session->trace_context().root_id);
    std::ostringstream os;
    obs::write_trace_json(os, tree);
    return os.str();
}

DaemonStats Daemon::stats() const {
    DaemonStats out;
    out.connections = connections_.load(std::memory_order_relaxed);
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.malformed = malformed_.load(std::memory_order_relaxed);
    out.http_requests = http_requests_.load(std::memory_order_relaxed);
    for (const TenantSummary& s : tenants())
        if (s.state == TenantState::Streaming) ++out.streaming;
    return out;
}

std::string Daemon::render_tenants_json() const {
    const std::vector<TenantSummary> all = tenants();
    std::ostringstream os;
    os << "{\n  \"tenants\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const TenantSummary& s = all[i];
        os << "    {\"id\": " << s.id << ", \"name\": \""
           << json_escape(s.name) << "\", \"state\": \""
           << tenant_state_name(s.state) << "\", \"events\": " << s.events
           << ", \"instances\": " << s.instances
           << ", \"flagged\": " << s.flagged
           << ", \"orphan_events\": " << s.orphan_events
           << ", \"bytes\": " << s.bytes << ", \"frames\": " << s.frames;
        if (!s.error.empty())
            os << ", \"error\": \"" << json_escape(s.error) << "\"";
        os << "}" << (i + 1 < all.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

std::string Daemon::render_metrics() const {
    std::ostringstream os;
    obs::write_metrics_prometheus(
        os, obs::MetricsRegistry::global().collect());
    // Per-tenant labeled series: the sharded registry aggregates by name
    // only, so the tenant dimension renders here from TenantSummary.
    const std::vector<TenantSummary> all = tenants();
    const DaemonStats st = stats();
    os << "# TYPE dsspy_serve_tenants_streaming gauge\n";
    obs::write_prometheus_sample(os, "serve.tenants_streaming", {},
                                 st.streaming);
    struct Series {
        const char* name;
        std::uint64_t TenantSummary::* field;
    };
    static constexpr Series kSeries[] = {
        {"serve.tenant_events", &TenantSummary::events},
        {"serve.tenant_instances", &TenantSummary::instances},
        {"serve.tenant_orphan_events", &TenantSummary::orphan_events},
        {"serve.tenant_flagged", &TenantSummary::flagged},
        {"serve.tenant_trace_bytes", &TenantSummary::bytes},
    };
    for (const Series& series : kSeries) {
        std::string prom = "dsspy_";
        for (const char ch : std::string_view(series.name))
            prom += ch == '.' ? '_' : ch;
        os << "# TYPE " << prom << " gauge\n";
        for (const TenantSummary& s : all) {
            const std::string id_str = std::to_string(s.id);
            const std::array<obs::PromLabel, 3> labels = {{
                {"tenant", id_str},
                {"name", s.name},
                {"state", tenant_state_name(s.state)},
            }};
            obs::write_prometheus_sample(os, series.name, labels,
                                         s.*(series.field));
        }
    }
    return os.str();
}

}  // namespace dsspy::serve
