#include "client.h"

#include <chrono>
#include <cstdlib>

#include "net/http.h"

namespace hdbench {

namespace {

void AppendRequest(std::string* wire, const std::string& host,
                   const std::string& target, const std::string& body) {
  wire->clear();
  *wire += "POST " + target + " HTTP/1.1\r\nHost: " + host +
           "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  *wire += body;
}

}  // namespace

std::string PostRequestBytes(const std::string& host, const std::string& target,
                             const std::string& body) {
  std::string wire;
  AppendRequest(&wire, host, target, body);
  return wire;
}

KeepAliveClient::KeepAliveClient(std::string host, int port,
                                 double read_timeout_seconds)
    : host_(std::move(host)),
      port_(port),
      read_timeout_seconds_(read_timeout_seconds) {}

Reply KeepAliveClient::Post(const std::string& target, const std::string& body) {
  Reply reply;
  AppendRequest(&wire_, host_, target, body);
  const auto start = std::chrono::steady_clock::now();
  auto fail = [&](std::string error) {
    socket_.Close();
    reply.error = std::move(error);
    reply.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    return reply;
  };
  if (!socket_.valid()) {
    auto connected = htd::util::ConnectTcp(host_, port_, 5.0);
    if (!connected.ok()) return fail("connect: " + connected.status().message());
    socket_ = std::move(*connected);
    htd::util::SetRecvTimeout(socket_.fd(), read_timeout_seconds_);
  }
  if (!htd::util::SendAll(socket_.fd(), wire_)) return fail("send failed");

  htd::net::HttpResponseParser parser;
  char buffer[64 * 1024];
  auto state = htd::net::HttpResponseParser::State::kNeedMore;
  while (state == htd::net::HttpResponseParser::State::kNeedMore) {
    const long n = htd::util::RecvSome(socket_.fd(), buffer, sizeof(buffer));
    if (n == 0) {
      state = parser.Finish();
      socket_.Close();
      break;
    }
    if (n < 0) return fail(n == -2 ? "response timed out" : "recv failed");
    state = parser.Consume(std::string_view(buffer, static_cast<size_t>(n)));
  }
  if (state != htd::net::HttpResponseParser::State::kDone) {
    return fail("malformed response: " + parser.error());
  }
  reply.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  reply.transport_ok = true;
  reply.status = parser.status();
  reply.body = parser.body();
  const auto& headers = parser.headers();
  if (auto it = headers.find("server-timing"); it != headers.end()) {
    reply.server_timing = it->second;
  }
  if (auto it = headers.find("connection");
      it != headers.end() && htd::net::AsciiIEquals(it->second, "close")) {
    socket_.Close();
  }
  return reply;
}

std::vector<std::pair<std::string, double>> ParseServerTiming(
    const std::string& header) {
  std::vector<std::pair<std::string, double>> stages;
  size_t pos = 0;
  while (pos < header.size()) {
    size_t end = header.find(',', pos);
    if (end == std::string::npos) end = header.size();
    const std::string entry = header.substr(pos, end - pos);
    pos = end + 1;
    const size_t semi = entry.find(';');
    const size_t dur = entry.find("dur=");
    if (semi == std::string::npos || dur == std::string::npos) continue;
    const size_t first = entry.find_first_not_of(' ');
    stages.emplace_back(entry.substr(first, semi - first),
                        std::strtod(entry.c_str() + dur + 4, nullptr));
  }
  return stages;
}

}  // namespace hdbench
