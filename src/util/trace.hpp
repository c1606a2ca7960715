// Waveform tracing: tabular (whitespace-separated columns) and VCD output.
//
// Any simulation object that can produce a double per time point can register
// itself with a trace_file through the `traceable` interface.  The analysis
// drivers (core/) call `sample(t)` at every accepted time point.
#ifndef SCA_UTIL_TRACE_HPP
#define SCA_UTIL_TRACE_HPP

#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace sca::util {

/// A named scalar quantity that can be sampled at a time point.
struct trace_channel {
    std::string name;
    std::function<double()> probe;
};

/// Base class for trace sinks. Channels are added before the first sample.
class trace_file {
public:
    virtual ~trace_file() = default;

    trace_file(const trace_file&) = delete;
    trace_file& operator=(const trace_file&) = delete;

    /// Register a named probe; must happen before the first sample().
    void add_channel(std::string name, std::function<double()> probe);

    /// Record the current value of every channel at time `t` (seconds).
    void sample(double t);

    /// Write an externally captured row (one value per channel) — used to
    /// re-emit an in-memory trace into another sink, e.g. a tabular file.
    void replay_row(double t, const std::vector<double>& values);

    /// Flush and close the underlying file. Idempotent.
    virtual void close() = 0;

    [[nodiscard]] std::size_t channel_count() const noexcept { return channels_.size(); }
    [[nodiscard]] const std::string& channel_name(std::size_t i) const {
        return channels_.at(i).name;
    }

protected:
    trace_file() = default;

    virtual void write_header() = 0;
    /// One row: `values` holds one value per channel.
    virtual void write_row(double t, const double* values) = 0;

    std::vector<trace_channel> channels_;
    bool header_written_ = false;

private:
    std::vector<double> row_;  // sample() scratch, sized once per channel set
};

/// Tabular trace: one row per sample, first column is time.
class tabular_trace_file final : public trace_file {
public:
    explicit tabular_trace_file(const std::string& path);
    ~tabular_trace_file() override;
    void close() override;

private:
    void write_header() override;
    void write_row(double t, const double* values) override;

    std::ofstream out_;
};

/// Value-change-dump trace with real-valued variables.
class vcd_trace_file final : public trace_file {
public:
    /// `time_resolution` is the VCD timescale in seconds (default 1 ps).
    explicit vcd_trace_file(const std::string& path, double time_resolution = 1e-12);
    ~vcd_trace_file() override;
    void close() override;

private:
    void write_header() override;
    void write_row(double t, const double* values) override;

    std::ofstream out_;
    double resolution_;
    std::vector<double> last_;
    long long last_stamp_ = -1;
};

/// In-memory trace for tests and measurements, stored column-major: one
/// times vector plus one value vector per channel.  sample() appends a whole
/// row; a producer that records channels out of step (a TDF probe tap fills
/// its column from inside the cluster) appends values with push_value() and
/// publishes rows with push_time() once every column holds them.  times()
/// is the completed-row watermark: readers see only rows below it.
class memory_trace final : public trace_file {
public:
    memory_trace() = default;
    void close() override {}

    [[nodiscard]] const std::vector<double>& times() const noexcept { return times_; }
    /// Completed rows.
    [[nodiscard]] std::size_t size() const noexcept { return times_.size(); }

    /// Completed samples of channel `c` (a pointer to size() contiguous
    /// values; valid until the next append).
    [[nodiscard]] const double* column_data(std::size_t c) const;
    /// Copy of the completed samples of channel `c`.
    [[nodiscard]] std::vector<double> column(std::size_t c) const;

    /// Append one value to channel `c` past the watermark.
    void push_value(std::size_t c, double v) {
        start();
        columns_[c].push_back(v);
    }
    /// Values channel `c` holds, completed or not.
    [[nodiscard]] std::size_t filled(std::size_t c) const { return columns_.at(c).size(); }
    /// Complete the next row at time `t`; every column must already hold it.
    void push_time(double t);

private:
    void start() {
        if (!header_written_) {
            write_header();
            header_written_ = true;
        }
    }
    void write_header() override { columns_.resize(channels_.size()); }
    void write_row(double t, const double* values) override;

    std::vector<double> times_;
    std::vector<std::vector<double>> columns_;
};

}  // namespace sca::util

#endif  // SCA_UTIL_TRACE_HPP
