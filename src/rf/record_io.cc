#include "rf/record_io.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "fault/failpoint.h"

namespace gem::rf {

Status SaveRecordsCsv(const std::string& path,
                      const std::vector<ScanRecord>& records) {
  std::ofstream out(path);
  if (!out.good()) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  out << "record_id,timestamp_s,inside,mac,rss_dbm,band\n";
  long id = 0;
  for (const ScanRecord& record : records) {
    for (const Reading& reading : record.readings) {
      out << id << ',' << record.timestamp_s << ','
          << (record.inside ? 1 : 0) << ',' << reading.mac << ','
          << reading.rss_dbm << ','
          << (reading.band == Band::k5GHz ? "5" : "2.4") << '\n';
    }
    ++id;
  }
  if (!out.good()) return Status::Internal("write to " + path + " failed");
  return Status::Ok();
}

namespace {

/// Strips the trailing '\r' of CRLF files (scan logs exported from
/// Windows tools are common in practice).
void StripCr(std::string& s) {
  if (!s.empty() && s.back() == '\r') s.pop_back();
}

/// Full-string numeric parses: trailing garbage ("12abc", "-50dBm") is
/// a malformed row, not a silently truncated value. A double must also
/// be finite: strtod accepts "nan" and "inf", and one such reading
/// turns every score of its record into NaN downstream.
bool ParseLong(const std::string& s, long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

StatusOr<std::vector<ScanRecord>> LoadRecordsCsv(const std::string& path) {
  GEM_FAILPOINT("rf.record_io.open");
  std::ifstream in(path);
  if (!in.good()) {
    return Status::NotFound("cannot open " + path);
  }
  std::vector<ScanRecord> records;
  // record_id -> index in `records`: rows sharing an id group into one
  // record even when another id's rows interleave (multi-device logs
  // merged by timestamp do this); first-seen order is kept.
  std::map<long, size_t> index_by_id;
  std::string line;
  bool saw_header = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    StripCr(line);
    if (line.empty()) continue;
    if (!saw_header) {
      saw_header = true;
      continue;
    }
    // Models a read error / hostile row surfacing mid-file: the loader
    // must abandon the parse with a definite Status, never return a
    // partially-grouped record set.
    GEM_FAILPOINT("rf.record_io.row");
    std::istringstream row(line);
    std::string id_s, ts_s, inside_s, mac, rss_s, band_s;
    if (!std::getline(row, id_s, ',') || !std::getline(row, ts_s, ',') ||
        !std::getline(row, inside_s, ',') || !std::getline(row, mac, ',') ||
        !std::getline(row, rss_s, ',') || !std::getline(row, band_s)) {
      return Status::InvalidArgument("malformed row at line " +
                                     std::to_string(line_no) + " of " + path);
    }
    long id = 0;
    if (!ParseLong(id_s, &id)) {
      return Status::InvalidArgument("bad record_id '" + id_s + "' at line " +
                                     std::to_string(line_no));
    }
    double ts = 0.0;
    if (!ParseDouble(ts_s, &ts)) {
      return Status::InvalidArgument("bad timestamp_s '" + ts_s +
                                     "' at line " + std::to_string(line_no));
    }
    if (inside_s != "0" && inside_s != "1") {
      return Status::InvalidArgument("bad inside flag '" + inside_s +
                                     "' (want 0 or 1) at line " +
                                     std::to_string(line_no));
    }
    if (mac.empty()) {
      return Status::InvalidArgument("empty mac at line " +
                                     std::to_string(line_no));
    }
    double rss = 0.0;
    if (!ParseDouble(rss_s, &rss)) {
      return Status::InvalidArgument("bad rss '" + rss_s + "' at line " +
                                     std::to_string(line_no));
    }
    Band band;
    if (band_s == "5") {
      band = Band::k5GHz;
    } else if (band_s == "2.4") {
      band = Band::k2_4GHz;
    } else {
      return Status::InvalidArgument("unknown band '" + band_s +
                                     "' (want 2.4 or 5) at line " +
                                     std::to_string(line_no));
    }

    const auto [it, inserted] =
        index_by_id.emplace(id, records.size());
    if (inserted) {
      records.emplace_back();
      records.back().timestamp_s = ts;
      records.back().inside = inside_s == "1";
    }
    Reading reading;
    reading.mac = std::move(mac);
    reading.rss_dbm = rss;
    reading.band = band;
    records[it->second].readings.push_back(std::move(reading));
  }
  if (!saw_header) {
    return Status::InvalidArgument(path + ": empty file (missing header)");
  }
  return records;
}

}  // namespace gem::rf
