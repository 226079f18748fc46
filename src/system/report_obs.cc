#include "system/report_obs.hh"

namespace wastesim
{

Figure
buildTimelineFigure(const SampleData &d)
{
    Figure f;
    f.id = "timeline";
    f.title = "Windowed counter time series (window = " +
              std::to_string(d.windowTicks) + " ticks)";
    f.unit = "per window (cumulative series: delta; gauges: level)";

    FigureTable t;
    t.percent = false;
    t.labelCols = {"window", "start", "end"};
    for (const SampleSeriesDesc &s : d.series)
        t.valueCols.push_back(s.path);
    for (std::size_t i = 0; i < d.windows.size(); ++i) {
        const SampleWindow &w = d.windows[i];
        FigureRow row;
        row.labels = {std::to_string(i), std::to_string(w.start),
                      std::to_string(w.end)};
        row.values = w.values;
        t.rows.push_back(std::move(row));
    }
    f.tables.push_back(std::move(t));
    return f;
}

} // namespace wastesim
