/**
 * @file
 * Observability report builder: the sampler time-series figure,
 * rendered through the Figure IR so `wastesim report timeline` shares
 * the table/JSON/CSV emitters with the paper figures.
 */

#ifndef WASTESIM_SYSTEM_REPORT_OBS_HH
#define WASTESIM_SYSTEM_REPORT_OBS_HH

#include "metrics/figure.hh"
#include "obs/sampler.hh"

namespace wastesim
{

/**
 * The windowed-sampler time series as a figure: one row per window
 * (index, start, end), one value column per registered series.
 */
Figure buildTimelineFigure(const SampleData &d);

} // namespace wastesim

#endif // WASTESIM_SYSTEM_REPORT_OBS_HH
