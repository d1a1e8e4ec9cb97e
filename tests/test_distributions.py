"""Numerical-kernel tests.

Reference values were frozen from independent oracles: the univariate
constants from a 40-digit erfc evaluation (mpmath), the bivariate rectangle
probabilities from the one-dimensional conditional-normal reduction
P(X>a, Y>b) = integral_a^inf phi(x) * Phibar((b - rho x)/sqrt(1-rho^2)) dx
evaluated with adaptive quadrature at 50 digits (see
tests/oracles/gen_distribution_oracles.py).  Neither oracle shares code with
the kernels under test.  scipy's ndtr and owens_t, from the test extra, are
a second, dense reference.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import ndtr as scipy_ndtr
from scipy.special import owens_t

from qualint.distributions import (
    bvn_upper_tail,
    ndtr,
    std_normal_quantile,
)

EPS = np.finfo(float).eps

# mpmath, 50 digits, at the exact double of each x: x -> Phi(x)
PHI_ORACLE = {
    -37.5: 4.605353009581954843828e-308,
    -37: 5.725571222524576822683e-300,
    -30.25: 2.608640285741260496334e-201,
    -20: 2.753624118606233695076e-89,
    -12.3: 4.528706956158784651441e-35,
    -8.01: 5.735422180258059780323e-16,
    -6.3: 1.488228221762312666877e-10,
    -5.6: 1.071759025831092932004e-8,
    -3.7: 0.0001077997334773882614813,
    -1.2: 0.1150696702217082766458,
    -0.26: 0.3974318867982394950647,
    0.3: 0.6179114221889526330723,
    1.959964: 0.9750000009035575980056,
    2.0: 0.9772498680518207927997,
    4.2: 0.9999866542509840936721,
    7.9: 0.9999999999999986054829,
}

# mpmath conditional-normal quadrature, 50 digits: (a, b, rho) -> P(X > a, Y > b).
# Every Genz regime of |rho| with both signs, thresholds on an axis, and
# deep upper tails out to +-38.
BVN_ORACLE = [
    (1.0, 0.5, 0.0, 0.04895110155395821478952),
    (0.5, -0.7, 0.2, 0.2551379263221913044944),
    (-1.3, 2.1, -0.25, 0.01356680731913484840998),
    (0.0, 0.0, 0.5, 0.3333333333333333333333),
    (1.0, 1.0, -0.6, 0.001718879945288859087489),
    (-0.5, 1.25, 0.37, 0.09371437056634271518921),
    (0.0, 0.8, -0.3, 0.07107309126944714799698),
    (0.3, 0.0, 0.72, 0.3117652039413016723131),
    (1.0, 1.0, 0.8, 0.09763651908155780662075),
    (2.0, -3.0, -0.85, 0.02150957359511581310058),
    (-2.2, -0.4, 0.65, 0.6546669460415283595179),
    (0.0, 1.7, 0.9, 0.04456334541420693456326),
    (1.5, 1.5, 0.999, 0.0644966873920801732926),
    (0.3, 0.0, 0.95, 0.3705508792359858390559),
    (2.5, 3.0, 0.93, 0.001217872355073620786445),
    (-1.1, 0.6, 0.9999, 0.2742531177500735876934),
    (0.7, 0.7, -0.95, 1.262310913993608296732e-7),
    (-1.0, -1.0, -0.99, 0.6826894921370858971705),
    (0.0, -0.5, -0.97, 0.1921860501222915825999),
    (-0.3, 0.4, -0.999, 0.00007398514359460373331924),
    (-1.5, 1.2, -0.93, 0.05539022508152157294296),
    (3.5, 2.5, 0.45, 0.00004264564887881252214694),
    (5.0, 5.0, -0.5, 3.432573480035108395745e-25),
    (12.0, 12.0, -0.5, 2.65803009919508732502e-129),
    (20.0, 3.0, -0.7, 1.895437409430512151952e-214),
    (8.0, 6.5, 0.2, 2.033049689387080990406e-22),
    (10.0, 12.0, 0.95, 1.776479154313288552455e-33),
    (25.0, 25.0, 0.9, 2.821241462906210112688e-146),
    (36.0, 36.0, 0.99, 4.455063213036484438224e-286),
    (37.0, 0.0, 0.3, 5.725571222524576822683e-300),
    (-38.0, 37.5, 0.95, 4.605353009581954843828e-308),
    (30.0, -38.0, -0.6, 4.906713927148187059534e-198),
    (-38.0, -38.0, -0.99, 1.0),
    (6.0, -6.0, -0.97, 5.452366887346999029382e-10),
]

# the same quadrature: upper-quadrant rows with rho < 0, the named points
# first, then the generator's seeded grid (h, k ~ U(0, 5), rho ~ U(-0.999, 0)).
BVN_NEGATIVE_RHO_ORACLE = [
    (3.92, 4.47, -0.859, 2.083950173873625970141e-58),
    (2.0, 2.0, -0.95, 5.644178865015190370273e-39),
    (0.7, 0.7, -0.95, 1.262310913993608296732e-7),
    (0.3871, 1.0681, -0.6962, 0.003733181685956251839555),
    (4.5011, 2.4813, -0.2795, 1.330298450503356040455e-10),
    (0.5012, 2.5446, -0.1568, 0.0009204544019496274883358),
    (2.6140, 4.7235, -0.1181, 7.514685994921088867619e-10),
    (1.8548, 0.0037, -0.2445, 0.009071017669218964554941),
    (0.6320, 0.0471, -0.2690, 0.09176103300116909419329),
    (4.2142, 4.1829, -0.0465, 6.99119080555515045793e-11),
    (1.0084, 0.4075, -0.8784, 0.0001152494016447523364613),
    (4.8887, 0.5596, -0.8396, 6.248890807999860745168e-25),
    (0.1005, 0.2467, -0.9608, 0.005793007285711168971037),
    (1.7652, 0.8163, -0.6896, 0.00004132901538805962618187),
    (4.6441, 0.8374, -0.1855, 6.61893336049613861125e-8),
    (3.6918, 2.8426, -0.4239, 3.982330514382237203148e-11),
    (3.8507, 2.9355, -0.7699, 1.841142398662568999441e-25),
    (1.6474, 1.2201, -0.5988, 0.00007063802128683140130689),
    (4.9363, 2.1338, -0.9294, 8.269965673717678292639e-82),
    (2.3837, 4.0634, -0.5539, 1.674256608252082587483e-13),
    (3.5115, 0.4545, -0.9367, 1.421606829368351113887e-31),
    (3.3087, 0.2413, -0.6973, 4.348877076173463324419e-8),
    (1.9231, 0.9676, -0.9627, 1.614055543676114302514e-28),
    (0.0337, 4.7581, -0.3110, 4.802555016260232334281e-8),
    (4.7590, 2.4585, -0.0455, 3.51112124929319923465e-9),
    (4.3127, 3.0901, -0.4744, 1.277968617162594381939e-14),
    (2.5433, 1.1273, -0.6232, 7.131923086567176838736e-7),
    (3.6145, 0.9762, -0.1499, 0.000008731074113308486385617),
    (2.5492, 3.0208, -0.1780, 9.137115951645846797706e-7),
    (3.2310, 0.6886, -0.7515, 2.746228643397248263485e-10),
    (0.0053, 0.1369, -0.0485, 0.2141856637074394667054),
    (2.9649, 4.8439, -0.2192, 9.830470965898880865189e-12),
    (1.5791, 4.8358, -0.0774, 1.604092470554214686429e-8),
    (2.2816, 0.4163, -0.6809, 0.00001962485540577364061251),
    (0.8315, 1.8279, -0.9166, 7.990862247325252079187e-13),
    (3.5662, 4.8978, -0.7884, 8.6446280679295440518e-41),
    (3.9002, 2.9221, -0.5168, 1.042286663234549757671e-13),
    (4.5365, 1.8866, -0.1787, 7.854826678495879335602e-9),
    (0.1738, 4.8268, -0.8166, 1.14375055979320623273e-19),
    (0.0187, 4.4066, -0.2783, 4.610757031642242304219e-7),
    (3.3740, 3.8298, -0.6220, 2.57573880911348809477e-18),
    (0.5721, 1.5910, -0.0463, 0.01410090338235493648563),
    (4.9073, 1.1501, -0.5572, 4.084724048904988707175e-13),
    (2.2531, 4.5211, -0.9935, 8.035726357863412010483e-773),
    (4.1461, 1.2672, -0.4504, 2.642822597474768750249e-9),
    (0.6455, 0.4204, -0.1168, 0.07379861737047138958874),
    (2.5146, 4.8591, -0.1350, 3.714431954069208533382e-10),
    (3.7622, 0.3732, -0.4103, 0.000001175735695910880499482),
    (4.9612, 2.5150, -0.9332, 9.217106149685951778821e-96),
    (0.9236, 4.9398, -0.0231, 5.811589596737146989904e-8),
    (1.2352, 1.5922, -0.2847, 0.001685335515453669067811),
    (2.5382, 0.9276, -0.0155, 0.0009221781598745047681378),
    (3.1035, 1.8258, -0.9770, 1.046754576560515291276e-119),
    (2.5519, 3.7599, -0.8213, 4.445879709870807815887e-28),
    (0.4362, 3.6205, -0.0795, 0.00003350813094987866213451),
    (1.8846, 2.3649, -0.3632, 0.0000100938061304452188329),
    (2.5999, 0.6418, -0.7244, 2.424365997180251627576e-7),
    (1.0305, 0.9860, -0.9109, 2.971054578603954305226e-8),
    (1.9560, 1.0962, -0.1523, 0.001796744270781517732077),
    (1.6101, 4.8159, -0.1888, 3.405886937609776695717e-9),
    (1.3462, 0.7707, -0.4275, 0.004138291509460947723965),
    (2.3700, 2.6750, -0.8759, 4.136168136809801770996e-26),
    (2.6558, 3.7964, -0.5543, 2.00720382163928530006e-13),
    (1.2761, 4.6115, -0.7032, 8.889455764515225158253e-17),
    (4.9764, 3.4437, -0.9967, 2.129374116460889870494e-2339),
    (2.2372, 0.7459, -0.2134, 0.001170003478011233062381),
    (2.1050, 0.4277, -0.0479, 0.005159475745682498209964),
    (3.9963, 3.0386, -0.4320, 1.268364004243986977718e-12),
    (0.3714, 4.9126, -0.6976, 1.262916952819332139139e-14),
    (2.6198, 2.4501, -0.5271, 7.309504992914983533832e-9),
    (0.0909, 4.4660, -0.5070, 9.073445419124029216972e-9),
    (1.9671, 4.3033, -0.1398, 3.665637745444840970579e-8),
    (3.5950, 4.5374, -0.6498, 4.115654420496228304584e-24),
    (0.5239, 1.7389, -0.3980, 0.00282551639810088254359),
    (3.9344, 3.6720, -0.3700, 4.629494194072531443422e-13),
    (3.0043, 3.3303, -0.4248, 1.389030691668276165467e-10),
    (0.0762, 2.7332, -0.7238, 0.000002143281243085796059339),
    (0.3614, 3.0617, -0.1589, 0.0002017004682445948944553),
    (1.4133, 3.3503, -0.3739, 6.07495358266116203071e-7),
    (3.4070, 4.3597, -0.3040, 1.633845483165232251866e-12),
    (0.3977, 3.0855, -0.6509, 4.146692317638743687203e-7),
    (2.0834, 3.3745, -0.8255, 2.589984227433775046528e-22),
    (3.1352, 4.6912, -0.9226, 1.39736491424232691506e-90),
    (4.2573, 3.5399, -0.5952, 9.336503086683186654171e-20),
    (3.8288, 0.3968, -0.8383, 3.366396079682893244141e-16),
    (4.9880, 3.1096, -0.8316, 1.597462325371713011567e-46),
    (0.6470, 2.2342, -0.4532, 0.0002792251145151505117131),
    (4.9490, 0.9306, -0.3640, 5.034985343488047629304e-10),
    (2.2023, 2.7860, -0.0582, 0.00002274895854287953219785),
    (0.5915, 4.1762, -0.2682, 4.936342724309773685199e-7),
    (1.3383, 0.6001, -0.2529, 0.0125541195472189458217),
    (4.2665, 1.7274, -0.8611, 2.285793121535213860717e-32),
    (2.7754, 3.3530, -0.6408, 1.136212477467750491158e-14),
    (2.0543, 0.5119, -0.8580, 2.265269800691222577305e-8),
    (1.1119, 3.7891, -0.8774, 1.661127366727322669316e-25),
    (0.9900, 2.3214, -0.7891, 6.691776181127383850418e-9),
    (1.1987, 3.6839, -0.7654, 8.362767185448540491076e-15),
    (2.8078, 0.4223, -0.4818, 0.00003767222520586774777593),
    (3.4909, 2.2377, -0.8092, 1.979530392723625884155e-22),
    (0.1510, 1.3753, -0.5908, 0.005931919262371036372429),
    (0.5043, 2.1319, -0.4911, 0.0004181953923796068567442),
    (0.3204, 3.3214, -0.0442, 0.0001414666684574461577089),
    (3.5129, 2.2479, -0.1670, 3.939519137502940428956e-7),
    (4.7247, 4.7488, -0.0484, 3.432069282593378013449e-13),
    (3.8284, 4.7161, -0.2380, 1.646719857111105626159e-13),
    (1.6247, 0.6723, -0.5124, 0.001296612354172474673148),
    (3.5148, 1.3452, -0.6394, 1.58564861768396427652e-10),
    (0.4113, 0.2047, -0.7402, 0.0324958220635606493014),
    (4.2425, 0.3018, -0.8493, 2.071299447316611334691e-19),
    (1.9976, 4.8408, -0.7815, 1.891394432974704945259e-27),
    (0.2184, 0.2444, -0.6552, 0.0628294663460559844895),
    (0.0278, 3.3530, -0.9369, 3.177773128295854077139e-24),
    (0.9495, 0.3828, -0.7291, 0.004128931220287466822555),
    (0.4419, 0.8215, -0.8053, 0.002019370520337729985465),
    (1.1666, 3.1724, -0.6296, 8.799719170919921910346e-9),
    (1.0364, 0.0605, -0.1345, 0.05895332080233253197894),
    (4.2688, 4.7406, -0.2902, 1.433148050396478597063e-15),
    (2.1632, 1.6404, -0.8043, 2.379283009260522641698e-11),
    (2.2013, 2.0911, -0.0622, 0.0001677361238064967343567),
    (1.0012, 3.4951, -0.2690, 0.000004428143029462698183844),
    (3.2918, 3.0670, -0.9568, 2.378230476688802360342e-106),
    (0.7344, 2.5911, -0.3961, 0.00009916628040937183999049),
    (4.8124, 3.9286, -0.7825, 4.034337272626474350419e-42),
    (0.7408, 3.8681, -0.9883, 5.931805640715532800341e-203),
    (4.5596, 0.4334, -0.4006, 1.393869608385946401957e-8),
    (4.2285, 0.4205, -0.8972, 1.512669734120429332269e-27),
    (3.1584, 3.5993, -0.9887, 1.934289436277177007846e-444),
    (2.3423, 3.9695, -0.2238, 1.388012847473551835866e-8),
    (1.9663, 0.0406, -0.3819, 0.003893364026386114994219),
    (2.6822, 2.1097, -0.4035, 5.798031646658144840918e-7),
    (2.9212, 2.4065, -0.4502, 1.606149833689703936818e-8),
    (2.8078, 3.8584, -0.2086, 5.25749260734079182214e-9),
    (0.1087, 3.9217, -0.7562, 2.440742637410856451962e-11),
    (2.1099, 1.0874, -0.6910, 0.000001538896954300247208765),
    (1.9911, 2.2697, -0.8929, 3.367540800618463074698e-22),
    (1.4707, 2.2836, -0.6133, 7.340096931133610691097e-7),
    (2.6500, 0.3451, -0.4410, 0.0001376168794047805761813),
    (4.5259, 3.6946, -0.4422, 1.934062484213967204115e-16),
    (4.0285, 1.8992, -0.8224, 1.730733608415730327328e-25),
    (3.0620, 1.2218, -0.7260, 1.143289114482228866315e-10),
    (3.8442, 2.5467, -0.8245, 3.542702095063923987728e-29),
    (1.0851, 3.6703, -0.3495, 5.501781359235420580161e-7),
    (4.4926, 3.6946, -0.7143, 3.307908559968390041733e-29),
    (3.5125, 4.4085, -0.1181, 1.145994760101652159632e-10),
    (4.5657, 0.7247, -0.7495, 1.85490618037795966152e-16),
    (0.8653, 4.0818, -0.3065, 2.461316520108992932834e-7),
    (2.7900, 0.9820, -0.5879, 8.644032897240347838846e-7),
    (3.4522, 0.1601, -0.1091, 0.00007927301232064827402732),
    (3.5205, 4.4714, -0.0513, 3.233153685263079522566e-10),
    (2.5770, 1.5049, -0.6197, 9.106749577927196528448e-8),
    (2.4386, 3.0251, -0.7254, 3.312289220947787276098e-15),
    (1.4429, 2.5629, -0.2602, 0.00006118282226654794512997),
    (0.0699, 4.5077, -0.3499, 1.102196062894850836627e-7),
    (2.5069, 2.7735, -0.1775, 0.000002700899519080749274635),
    (2.1455, 1.6257, -0.9086, 1.062059411344710580628e-20),
    (1.6713, 0.3037, -0.7444, 0.0002006362739723209175149),
    (3.2067, 1.7890, -0.0892, 0.00001179031428381151009674),
    (2.3460, 4.1798, -0.7917, 4.096806009232452870344e-26),
    (4.8891, 4.2617, -0.0950, 4.780593879302933498325e-13),
    (4.0276, 2.5930, -0.8446, 1.15242876812599954312e-34),
    (4.2168, 4.7828, -0.5423, 1.100320022543564092321e-22),
    (3.8278, 3.1257, -0.2296, 1.00856321286513945555e-9),
    (4.5427, 3.2508, -0.8545, 1.595311041204300104223e-49),
]

# relative accuracy of bvn_upper_tail where the tail is below 1e-15
DEEP_TAIL_REL = 1e-13


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_oracle_values(self):
        for x, expected in PHI_ORACLE.items():
            assert ndtr(x) == pytest.approx(expected, abs=1e-12)

    def test_oracle_values_within_four_ulp(self):
        # relative accuracy holds down to Phi(-37.5) = 4.6e-308
        for x, expected in PHI_ORACLE.items():
            assert abs(ndtr(x) - expected) <= 4.0 * np.spacing(expected), x

    def test_matches_scipy_densely(self):
        # scipy rounds x / sqrt(2) and x^2 itself, so in the lower tail the two
        # may differ by that error, about eps (4 + x^2) relative
        x = np.random.default_rng(2024).uniform(-37.0, 9.0, 200_000)
        want = scipy_ndtr(x)
        assert (np.abs(ndtr(x) - want) <= 2.0 * EPS * (4.0 + x * x) * want).all()

    def test_limits_and_nan(self):
        got = ndtr(np.array([-math.inf, -1e300, -40.0, 0.0, 40.0, 1e300, math.inf]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0])
        assert math.isnan(ndtr(math.nan))

    def test_upper_alpha_point(self):
        # 97.5% point of the standard normal, 1e-6 tolerance
        assert abs(ndtr(1.959964) - 0.975) < 1e-6

    def test_reflection(self):
        x = 2.3
        assert ndtr(-x) == pytest.approx(1.0 - ndtr(x), abs=1e-12)

    def test_reflection_randomized(self):
        rng = np.random.default_rng(2024)
        for x in rng.uniform(-8.0, 8.0, size=200):
            assert abs(ndtr(x) + ndtr(-x) - 1.0) <= 1e-12


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_oracle_value(self):
        # mpmath root of Phi(x) = 0.975
        assert std_normal_quantile(0.975) == pytest.approx(1.9599639845400542, abs=1e-10)

    def test_reflection(self):
        assert std_normal_quantile(0.05) == pytest.approx(
            -std_normal_quantile(0.95), abs=1e-12
        )

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for p in rng.uniform(1e-6, 1.0 - 1e-6, size=100):
            assert abs(ndtr(std_normal_quantile(p)) - p) <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


BVN_THRESHOLDS = st.one_of(
    st.floats(-8.0, 8.0), st.floats(5.0, 42.0), st.floats(35.0, 39.0),
    st.sampled_from([0.0, -0.0, 5.0, 40.0, math.inf, -math.inf]), st.floats(allow_nan=False))
BVN_NONNEGATIVE_RHO = st.one_of(
    st.floats(0.0, 1.0), st.floats(0.925, 1.0),
    st.sampled_from([0.0, 0.3, 0.75, 0.925, 1.0 - 1e-12, 1.0]))


class TestBvnUpperTail:
    def test_frozen_node_tables_are_numpys(self):
        # the kernel ships its quadrature rules as constants; they hold the
        # bits numpy.polynomial computes
        from numpy.polynomial.laguerre import laggauss
        from numpy.polynomial.legendre import leggauss

        from qualint.distributions import _OWEN_FAR, _legendre

        for n in (6, 12, 16, 20):
            for frozen, computed in zip(_legendre(n), leggauss(n)):
                assert np.array_equal(frozen, computed), n
        for frozen, computed in zip(_OWEN_FAR, laggauss(16)):
            assert np.array_equal(frozen, computed)

    def test_independence_factorization(self):
        got = bvn_upper_tail(1.0, 0.5, 0.0)
        want = (1.0 - ndtr(1.0)) * (1.0 - ndtr(0.5))
        assert got == pytest.approx(want, abs=1e-10)

    def test_orthant_identity(self):
        # Sheppard: P(X>0, Y>0) = 1/4 + arcsin(rho)/(2 pi)
        assert bvn_upper_tail(0.0, 0.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_oracle_grid(self):
        for a, b, rho, expected in BVN_ORACLE:
            assert abs(bvn_upper_tail(a, b, rho) - expected) <= 1e-14, (a, b, rho)

    def test_deep_tail_oracles_relative(self):
        # far below the absolute budget the kernel keeps relative accuracy
        for a, b, rho, expected in BVN_ORACLE:
            if expected < 1e-15:
                got = bvn_upper_tail(a, b, rho)
                assert abs(got - expected) <= DEEP_TAIL_REL * expected, (a, b, rho, got)

    def test_negative_rho_upper_quadrant_oracles_relative(self):
        # rho < 0 with both thresholds >= 0, where Genz's terms of opposite
        # sign cancel: every tail in the normal range keeps 1e-12 relative
        for a, b, rho, expected in BVN_NEGATIVE_RHO_ORACLE:
            got = bvn_upper_tail(a, b, rho)
            assert abs(got - expected) <= 1e-14, (a, b, rho, got)
            if expected >= 2.2e-308:
                assert abs(got - expected) <= 1e-12 * expected, (a, b, rho, got)

    def test_matches_owens_t_densely(self):
        # Owen's decomposition through scipy's owens_t, off the axes
        rng = np.random.default_rng(11)
        a, b = rng.uniform(-6.0, 6.0, (2, 50_000))
        rho = rng.uniform(-0.999, 0.999, 50_000)
        h, k = -a, -b
        root = np.sqrt((1.0 - rho) * (1.0 + rho))
        owen = (0.5 * (scipy_ndtr(h) + scipy_ndtr(k)) - owens_t(h, (k / h - rho) / root)
                - owens_t(k, (h / k - rho) / root) - np.where((h > 0) != (k > 0), 0.5, 0.0))
        assert np.abs(bvn_upper_tail(a, b, rho) - owen).max() <= 1e-14

    def test_rows_equal_single_calls(self):
        # each row takes its method and nodes from its own values, whatever
        # the batch holds: every Genz regime, the upper-tail rows (both
        # thresholds >= 0, one >= 5) and rows with a = b.  Batches that share
        # one correlation (in Genz regime 0, 1 or 2) compute its sines once;
        # two correlations in one regime take the per-row sines
        rng = np.random.default_rng(3)
        a, b = rng.uniform(-4.0, 12.0, (2, 300))
        b[::3] = a[::3]
        two = np.where(np.arange(300) % 2 == 0, 0.4, -0.7)  # both |rho| in [0.3, 0.75)
        for rho in (rng.uniform(-1.0, 1.0, 300), np.full(300, -0.2), np.full(300, 0.6),
                    np.full(300, -0.9), two):
            batch = bvn_upper_tail(a, b, rho)
            assert [bvn_upper_tail(*row) for row in zip(a, b, rho)] == batch.tolist()

    def test_upper_tail_rows_equal_single_calls_on_both_sides_of_the_split(self):
        # Owen's terms with y0 = |b - rho a| / sqrt(1 - rho^2) below 6 have a
        # Legendre part on [y0, 6]; from 6 on that part is empty and skipped
        a = np.repeat(np.linspace(5.0, 9.0, 6), 8)
        b = np.tile(np.linspace(0.0, 12.0, 8), 6)
        for rho in (np.full(48, -0.6), np.full(48, 0.8), np.linspace(-0.95, 0.95, 48)):
            y0 = np.abs(b - rho * a) / np.sqrt(1.0 - rho * rho)
            assert (y0 < 6.0).any() and (y0 >= 6.0).any()
            batch = bvn_upper_tail(a, b, rho)
            assert [bvn_upper_tail(*row) for row in zip(a, b, rho)] == batch.tolist()

    def test_degenerate_positive(self):
        # rho = 1 means X = Y: tail is governed by the larger threshold
        assert bvn_upper_tail(0.3, 0.7, 1.0) == pytest.approx(
            1.0 - ndtr(0.7), abs=1e-14
        )
        assert bvn_upper_tail(0.3, 0.7, 1.0 - 1e-13) == bvn_upper_tail(0.3, 0.7, 1.0)

    def test_degenerate_negative(self):
        # rho = -1 means X = -Y: the event is a < X < -b
        assert bvn_upper_tail(-1.0, -1.0, -1.0) == pytest.approx(
            ndtr(1.0) - ndtr(-1.0), abs=1e-14
        )
        assert bvn_upper_tail(1.0, 1.0, -1.0) == 0.0

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=2)
            rho = rng.uniform(-0.99, 0.99)
            assert bvn_upper_tail(a, b, rho) == pytest.approx(
                bvn_upper_tail(b, a, rho), abs=1e-13
            )

    # thresholds through every method: Genz's rule, Owen's sums from 5 on,
    # tails down to the subnormal range near 37-38, the +-40 clip, +-inf
    # and the whole float range; correlations through every regime from 0
    # to the degenerate line at 1
    @given(st.lists(st.tuples(BVN_THRESHOLDS, BVN_THRESHOLDS, BVN_NONNEGATIVE_RHO),
                    min_size=1, max_size=12), st.booleans())
    @example([(37.5, 36.0, 0.9), (36.0, 37.5, 0.9), (38.0, 37.2, 0.99)], False)  # subnormal
    @example([(5.0, 0.0, 0.0), (math.inf, 2.0, 0.5), (-math.inf, 40.5, 1.0),
              (1e300, -1e300, 0.925)], True)
    def test_exchange_symmetry_is_exact_at_nonnegative_rho(self, rows, shared):
        # a balanced power grid mirrors each cell's tails onto its transpose's
        # with the thresholds swapped, at rho >= 0: the bits must not move,
        # also where a batch shares one correlation
        a, b, rho = map(np.array, zip(*rows))
        if shared:
            rho[:] = rho[0]
        assert bvn_upper_tail(a, b, rho).tolist() == bvn_upper_tail(b, a, rho).tolist()

    def test_monotone_in_rho(self):
        # Slepian: the joint upper tail grows with the correlation, also in
        # deep tails and across the switch to the upper-tail method at 5
        for a, b in [(-1.5, 0.4), (0.0, 0.0), (0.7, 1.9), (2.0, 2.0), (-0.3, -2.1),
                     (5.5, 5.0), (6.0, 0.0), (4.9, 5.1)]:
            values = [
                bvn_upper_tail(a, b, rho) for rho in np.linspace(-0.999, 0.999, 41)
            ]
            assert all(
                later >= earlier * (1.0 - 1e-12) - 1e-16
                for earlier, later in zip(values, values[1:])
            )

    def test_reflection_marginal(self):
        # P(X>a, Y>b) + P(X>a, Y<=b) must rebuild the marginal tail of X
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b = rng.uniform(-2.5, 2.5, size=2)
            rho = rng.uniform(-0.98, 0.98)
            total = bvn_upper_tail(a, b, rho) + bvn_upper_tail(a, -b, -rho)
            assert total == pytest.approx(1.0 - ndtr(a), abs=1e-12)

    def test_monte_carlo_agreement(self):
        # 10^6 correlated draws at 20 random points, 4 MC standard errors
        rng = np.random.default_rng(99)
        n = 1_000_000
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        for _ in range(20):
            a, b = rng.uniform(-2.0, 2.0, size=2)
            rho = rng.uniform(-0.95, 0.95)
            y = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
            p_hat = float(np.mean((z1 > a) & (y > b)))
            se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n)
            assert abs(bvn_upper_tail(a, b, rho) - p_hat) <= 4.0 * se

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bvn_upper_tail(math.nan, 0.0, 0.5)
        with pytest.raises(ValueError):
            bvn_upper_tail(0.0, [1.0, math.nan], 0.5)
        with pytest.raises(ValueError):
            bvn_upper_tail(0.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            bvn_upper_tail(math.inf, 0.0, math.nan)

    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_infinite_thresholds_give_the_limits(self, rho):
        # +inf: the event is empty; -inf: the other margin's tail, exactly as
        # qualint's own Phi gives it
        for x in (-40.0, -2.5, -1e-300, 0.0, 0.7, 3.0, 40.0):
            for first, second in ((math.inf, x), (x, math.inf)):
                got = bvn_upper_tail(first, second, rho)
                assert type(got) is float and got == 0.0
            for first, second in ((-math.inf, x), (x, -math.inf)):
                got = bvn_upper_tail(first, second, rho)
                assert type(got) is float and got == ndtr(-x)
        assert bvn_upper_tail(-math.inf, -math.inf, rho) == 1.0
        assert bvn_upper_tail(math.inf, -math.inf, rho) == 0.0
        assert bvn_upper_tail(-math.inf, math.inf, rho) == 0.0
        # arrays broadcast, finite entries keep the finite-threshold value
        a = np.array([[-math.inf], [0.3], [math.inf]])
        b = np.array([1.2, -math.inf])
        got = bvn_upper_tail(a, b, rho)
        assert got.shape == (3, 2)
        want = [[ndtr(-1.2), 1.0], [bvn_upper_tail(0.3, 1.2, rho), ndtr(-0.3)], [0.0, 0.0]]
        np.testing.assert_array_equal(got, want)
